"""Random connected graphs, BFS spanning trees, and periodic link schedules."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MAX_TRIES = 10_000  # draws a random family makes before it gives up on connectivity


class ProtocolError(RuntimeError):
    pass


class AssumptionViolation(RuntimeError):
    """The network does not satisfy the connectivity assumptions."""


def _normalize_edges(edges) -> list:
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        out.add((min(u, v), max(u, v)))
    return sorted(out)


def _adjacency(p: int, edges) -> list:
    adj = [[] for _ in range(p)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def _bfs(adjacency: list, root: int) -> tuple:
    """Breadth-first search over ascending neighbor lists: the visit order,
    each vertex's parent (None at the root and where unreached) and its
    depth (-1 where unreached)."""
    parent: list = [None] * len(adjacency)
    depth = [-1] * len(adjacency)
    depth[root] = 0
    order = [root]
    for u in order:  # grows while it is read
        for v in adjacency[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                parent[v] = u
                order.append(v)
    return order, parent, depth


def _is_connected(p: int, edges) -> bool:
    return p <= 1 or len(_bfs(_adjacency(p, edges), 0)[0]) == p


@dataclass
class Graph:
    p: int
    edges: list  # sorted (u, v) pairs, u < v
    adjacency: list = field(init=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p = {self.p} must be at least 1")
        self.edges = _normalize_edges(self.edges)
        for u, v in self.edges:
            if not (0 <= u < self.p and 0 <= v < self.p):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
        self.adjacency = _adjacency(self.p, self.edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        return _is_connected(self.p, self.edges)

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)


@dataclass
class SpanningTree:
    root: int
    parent: list  # parent[v], None at the root
    children: list  # ascending child lists
    depth: list
    build_messages: int  # 2|E| - (P-1) construction cost of the source graph

    @property
    def p(self) -> int:
        return len(self.parent)

    @property
    def height(self) -> int:
        return max(self.depth)


def bfs_spanning_tree(g: Graph, root: int = 0) -> SpanningTree:
    """Breadth-first tree rooted at `root`, exploring neighbors in ascending order."""
    order, parent, depth = _bfs(g.adjacency, root)
    if len(order) < g.p:
        raise ProtocolError(f"vertex {depth.index(-1)} unreachable from root {root}")
    children = [[] for _ in range(g.p)]
    for v in order[1:]:  # each vertex's children are found in ascending order
        children[parent[v]].append(v)
    return SpanningTree(root=root, parent=parent, children=children, depth=depth,
                        build_messages=2 * g.num_edges - (g.p - 1))


def check_graph_args(family: str, p: int, param: float) -> None:
    """Raise ValueError unless the generator of `family` takes `param` on p >= 1
    vertices: "ba" an integer in [1, p), "er" one in (0, 1], "geo" one above 0."""
    if p < 1:
        raise ValueError(f"p = {p} must be at least 1")
    if family == "ba" and not (float(param).is_integer() and 1 <= param < p):
        raise ValueError(f"ba attachment {param:g} must be an integer in [1, p = {p})")
    if family == "er" and not 0 < param <= 1:
        raise ValueError(f"er probability {param:g} must lie in (0, 1]")
    if family == "geo" and not param > 0:
        raise ValueError(f"geo radius {param:g} must be positive")


def gen_barabasi_albert(p: int, attach_m: int, seed: int) -> Graph:
    """Preferential attachment: each new vertex links to attach_m existing ones."""
    check_graph_args("ba", p, attach_m)
    rng = np.random.default_rng(seed)
    targets = list(range(attach_m))
    repeated: list = []
    edges = []
    for source in range(attach_m, p):
        for t in targets:
            edges.append((t, source))
        repeated.extend(targets)
        repeated.extend([source] * attach_m)
        chosen: set = set()
        while len(chosen) < attach_m:
            chosen.add(repeated[rng.integers(len(repeated))])
        targets = sorted(chosen)
    return Graph(p=p, edges=edges)


def gen_erdos_renyi(p: int, pr: float, seed: int) -> Graph:
    """Each pair linked independently with probability pr, resampled until connected."""
    check_graph_args("er", p, pr)
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    for _ in range(MAX_TRIES):
        draws = rng.random(len(pairs))
        edges = [pairs[i] for i in range(len(pairs)) if draws[i] < pr]
        if _is_connected(p, edges):
            return Graph(p=p, edges=edges)
    raise AssumptionViolation(f"no connected draw in {MAX_TRIES} tries (p={p}, pr={pr})")


def gen_geometric(p: int, d: float, seed: int) -> Graph:
    """Uniform points in the unit square, linked when within distance d."""
    check_graph_args("geo", p, d)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        pts = rng.random((p, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        edges = [(u, v) for u in range(p) for v in range(u + 1, p)
                 if dist[u, v] <= d]
        if _is_connected(p, edges):
            return Graph(p=p, edges=edges)
    raise AssumptionViolation(f"no connected draw in {MAX_TRIES} tries (p={p}, d={d})")


@dataclass
class TvSchedule:
    """A periodic sequence of subgraphs whose union is the base graph."""

    base: Graph
    subgraphs: list  # one sorted edge list per step of the period

    def __post_init__(self):
        if not self.subgraphs:
            raise ValueError("a schedule needs at least one subgraph")
        self.subgraphs = [_normalize_edges(s) for s in self.subgraphs]
        union = set()
        for s in self.subgraphs:
            union.update(s)
        if union != set(self.base.edges):
            raise ValueError("union of subgraphs differs from the base edge set")

    @property
    def period(self) -> int:
        return len(self.subgraphs)

    @property
    def p(self) -> int:
        return self.base.p

    def edges_at(self, t: int) -> list:
        return self.subgraphs[t % self.period]


def static_schedule(g: Graph) -> TvSchedule:
    """A static network viewed as a period-1 schedule."""
    return TvSchedule(base=g, subgraphs=[list(g.edges)])


def check_subgraph_count(count: int) -> None:
    """Raise ValueError unless gen_tv_schedule can draw `count` subgraphs."""
    if count < 1:
        raise ValueError(f"subgraph count {count} must be at least 1")


def gen_tv_schedule(g: Graph, count: int, seed: int,
                    retain_prob: float = 0.5) -> TvSchedule:
    """Draw `count` random subgraphs of g and repair the union property.

    Every base edge is kept in each subgraph independently with
    retain_prob; an edge that lands in no subgraph is inserted into one
    chosen uniformly so the union is exactly the base graph.
    """
    check_subgraph_count(count)
    if not (0 < retain_prob < 1):
        raise ValueError("retain_prob must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    keep = rng.random((count, len(g.edges))) < retain_prob
    missing = ~keep.any(axis=0)
    for j in np.flatnonzero(missing):
        keep[rng.integers(count), j] = True
    subgraphs = [[g.edges[j] for j in np.flatnonzero(keep[t])]
                 for t in range(count)]
    return TvSchedule(base=g, subgraphs=subgraphs)


def validate_connectivity_window(s: TvSchedule) -> int:
    """Smallest window length whose every union of consecutive subgraphs connects.

    A window's union only grows with its length, so this is the largest, over
    the cyclic starts, of the first length whose union connects; each start
    grows its union in one union-find.  The union of a whole period is the
    base graph, so every start finds one unless the base is disconnected.
    """
    window = 1
    for start in range(s.period):
        parent, parts, length = list(range(s.p)), s.p, 0
        while parts > 1:
            if length == s.period:
                raise AssumptionViolation("base graph is disconnected")
            for u, v in s.subgraphs[(start + length) % s.period]:
                while parent[u] != u:  # path halving
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u != v:
                    parent[u], parts = v, parts - 1
            length += 1
        window = max(window, length)
    return window


def graph_to_text(g: Graph) -> str:
    """Edge-list form: a '# p=<count>' header then one 'u v' pair per line."""
    lines = [f"# p={g.p}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse graph_to_text's form: one '# p=' header and 'u v' pairs; other
    '#' lines are comments.  Any other line, or a second '# p=' header,
    raises a ValueError naming it."""
    p: Optional[int] = None
    edges = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        try:
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                if key.strip() == "p":
                    if p is not None:
                        raise ValueError("a second '# p=' header")
                    p = int(val)
            elif line:
                u, v = line.split()
                edges.append((int(u), int(v)))
        except ValueError as exc:
            raise ValueError(f"line {number}: {line!r}: {exc}") from None
    if p is None:
        raise ValueError("missing '# p=' header")
    return Graph(p=p, edges=edges)


def schedule_to_text(s: TvSchedule) -> str:
    """gen-schedule's file: blocks of edge lists under '# t=<i>' headers."""
    lines = [f"# p={s.p}"]
    for t, sub in enumerate(s.subgraphs):
        lines.append(f"# t={t}")
        lines.extend(f"{u} {v}" for u, v in sub)
    return "\n".join(lines) + "\n"
