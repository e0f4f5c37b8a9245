import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import bfs_validate_connectivity_window, schedule_from_text

from distiht.graphs import (AssumptionViolation, Graph, ProtocolError, SpanningTree,
                            TvSchedule, _adjacency, _is_connected, bfs_spanning_tree,
                            gen_barabasi_albert, gen_erdos_renyi, gen_geometric,
                            gen_tv_schedule, graph_from_text, graph_to_text,
                            schedule_to_text, static_schedule,
                            validate_connectivity_window)


class TestBarabasiAlbert:
    def test_minimal_tree(self):
        g = gen_barabasi_albert(3, 1, seed=0)
        assert g.num_edges == 2
        assert g.is_connected()

    def test_edge_count_band_p50(self):
        # attachment count 3 lands in the expected band for 50 vertices
        counts = [gen_barabasi_albert(50, 3, seed=s).num_edges for s in range(5)]
        assert all(100 <= c <= 160 for c in counts)

    def test_edge_count_band_p64(self):
        counts = [gen_barabasi_albert(64, 3, seed=s).num_edges for s in range(20)]
        mean = np.mean(counts)
        assert 171 * 0.75 <= mean <= 171 * 1.25

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            gen_barabasi_albert(3, 3, seed=0)
        with pytest.raises(ValueError):
            gen_barabasi_albert(3, 0, seed=0)


class TestErdosRenyi:
    def test_complete_at_probability_one(self):
        g = gen_erdos_renyi(6, 1.0, seed=0)
        assert g.num_edges == 15

    def test_two_vertices_forced_edge(self):
        g = gen_erdos_renyi(2, 0.5, seed=0)
        assert g.edges == [(0, 1)]

    def test_mean_edges_p50(self):
        counts = [gen_erdos_renyi(50, 0.75, seed=s).num_edges for s in range(10)]
        assert 875 <= np.mean(counts) <= 1010

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_erdos_renyi(5, 1.5, seed=0)


class TestGeometric:
    def test_full_diameter_is_complete(self):
        g = gen_geometric(8, np.sqrt(2.0), seed=0)
        assert g.num_edges == 28

    def test_band_p50(self):
        # band frozen from a 20-seed Monte-Carlo estimate (mean ~594)
        counts = [gen_geometric(50, 0.5, seed=s).num_edges for s in range(5)]
        assert all(480 <= c <= 780 for c in counts)

    def test_two_vertices(self):
        g = gen_geometric(2, 0.3, seed=1)
        assert g.edges == [(0, 1)]

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            gen_geometric(5, 0.0, seed=0)


def test_generators_deterministic_and_connected():
    for make in (lambda s: gen_barabasi_albert(20, 2, s),
                 lambda s: gen_erdos_renyi(20, 0.3, s),
                 lambda s: gen_geometric(20, 0.4, s)):
        a, b = make(7), make(7)
        assert a.edges == b.edges
        assert a.is_connected()


class TestBfsTree:
    def test_path_graph(self):
        g = Graph(p=3, edges=[(0, 1), (1, 2)])
        t = bfs_spanning_tree(g, root=0)
        assert t.parent == [None, 0, 1]
        assert t.depth == [0, 1, 2]
        assert t.height == 2

    def test_complete_graph_star(self):
        g = Graph(p=4, edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])
        t = bfs_spanning_tree(g, root=0)
        assert t.children[0] == [1, 2, 3]
        assert t.depth == [0, 1, 1, 1]

    def test_edge_count_and_build_cost(self):
        g = gen_erdos_renyi(12, 0.4, seed=3)
        t = bfs_spanning_tree(g)
        assert sum(v is not None for v in t.parent) == 11  # p - 1 tree edges
        assert t.build_messages == 2 * g.num_edges - 11
        # every tree edge exists in the graph
        edge_set = set(g.edges)
        for v in range(12):
            if t.parent[v] is not None:
                u = t.parent[v]
                assert (min(u, v), max(u, v)) in edge_set
                assert t.depth[v] == t.depth[u] + 1

    def test_unreachable_vertex_reported(self):
        g = Graph(p=4, edges=[(0, 1), (2, 3)])
        with pytest.raises(ProtocolError, match="unreachable"):
            bfs_spanning_tree(g, root=0)


class TestTvSchedule:
    def test_single_subgraph_is_base(self):
        g = gen_erdos_renyi(8, 0.4, seed=4)
        s = gen_tv_schedule(g, 1, seed=5)
        assert s.subgraphs[0] == g.edges

    def test_union_property_exact(self):
        g = gen_erdos_renyi(10, 0.3, seed=6)
        s = gen_tv_schedule(g, 10, seed=7)
        union = set()
        for sub in s.subgraphs:
            union.update(sub)
        assert union == set(g.edges)

    def test_every_edge_appears_and_density(self):
        g = Graph(p=4, edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])
        s = gen_tv_schedule(g, 10, seed=8)
        for e in g.edges:
            assert any(e in sub for sub in s.subgraphs)
        density = sum(len(sub) for sub in s.subgraphs) / (10 * g.num_edges)
        assert 0.3 <= density <= 0.7

    def test_periodicity(self):
        g = gen_erdos_renyi(6, 0.5, seed=9)
        s = gen_tv_schedule(g, 10, seed=10)
        for t in range(25):
            assert s.edges_at(t) == s.edges_at(t + 10)

    def test_static_wrapper(self):
        g = gen_erdos_renyi(5, 0.6, seed=11)
        s = static_schedule(g)
        assert s.period == 1 and s.edges_at(3) == g.edges

    def test_union_mismatch_rejected(self):
        g = Graph(p=3, edges=[(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            TvSchedule(base=g, subgraphs=[[(0, 1)]])  # never covers (1, 2)


class TestConnectivityWindow:
    def test_single_subgraph(self):
        g = gen_erdos_renyi(8, 0.4, seed=12)
        assert validate_connectivity_window(gen_tv_schedule(g, 1, seed=0)) == 1

    def test_connected_subgraphs_give_window_one(self):
        g = gen_erdos_renyi(8, 0.6, seed=13)
        s = TvSchedule(base=g, subgraphs=[list(g.edges)] * 10)
        assert validate_connectivity_window(s) == 1

    def test_generic_schedule_within_period(self):
        g = gen_erdos_renyi(10, 0.3, seed=14)
        s = gen_tv_schedule(g, 10, seed=15)
        w = validate_connectivity_window(s)
        assert 1 <= w <= 10
        # independent re-check of the returned window
        from distiht.graphs import _is_connected
        for start in range(10):
            union = set()
            for off in range(w):
                union.update(s.subgraphs[(start + off) % 10])
            assert _is_connected(10, union)

    def test_disconnected_base_rejected(self):
        g = Graph(p=4, edges=[(0, 1), (2, 3)])
        s = TvSchedule(base=g, subgraphs=[[(0, 1), (2, 3)]])
        with pytest.raises(AssumptionViolation):
            validate_connectivity_window(s)


def test_schedule_without_subgraphs_rejected():
    # a period-0 schedule has no window and no step to take
    for make in (lambda: TvSchedule(base=Graph(p=1, edges=[]), subgraphs=[]),
                 lambda: schedule_from_text("# p=1\n")):
        with pytest.raises(ValueError, match="at least one subgraph"):
            make()


def test_graph_text_roundtrip():
    g = gen_erdos_renyi(7, 0.5, seed=16)
    back = graph_from_text(graph_to_text(g))
    assert back.p == g.p and back.edges == g.edges


def test_schedule_text_roundtrip():
    g = gen_erdos_renyi(7, 0.5, seed=17)
    s = gen_tv_schedule(g, 4, seed=18)
    back = schedule_from_text(schedule_to_text(s))
    assert back.p == s.p and back.subgraphs == s.subgraphs
    assert back.base.edges == s.base.edges


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        Graph(p=3, edges=[(1, 1)])
    with pytest.raises(ValueError):
        Graph(p=3, edges=[(0, 5)])


@pytest.mark.parametrize("parse, text", [
    (graph_from_text, "# p=-3\n"),
    (graph_from_text, "# p=0\n"),
    (schedule_from_text, "# p=0\n# t=0\n"),
])
def test_fewer_than_one_vertex_rejected(parse, text):
    with pytest.raises(ValueError, match="^p = -?[03] must be at least 1$"):
        parse(text)


def test_schedule_edge_before_first_block_rejected():
    with pytest.raises(ValueError, match="line 2.*before the first '# t='"):
        schedule_from_text("# p=3\n0 1\n# t=0\n1 2\n")


@pytest.mark.parametrize("parse, text", [
    (graph_from_text, "# p=3\n\n0 1\n1 2 3\n"),
    (schedule_from_text, "# p=3\n# t=0\n0 1\n1 2 3\n"),
])
def test_three_token_line_names_its_number(parse, text):
    with pytest.raises(ValueError, match="line 4: '1 2 3'"):
        parse(text)


def test_second_vertex_count_header_names_its_line():
    # a later count would silently redefine the graph, here to 5 vertices, disconnected
    with pytest.raises(ValueError, match="^line 4: '# p=5': a second '# p=' header$"):
        graph_from_text("# p=3\n0 1\n1 2\n# p=5\n")


# The depth-first connectivity test, the breadth-first tree and the
# window scan that one breadth-first kernel replaced, kept verbatim (but for
# their names) as oracles.

def reference_is_connected(p: int, edges) -> bool:
    if p <= 1:
        return True
    adj = _adjacency(p, edges)
    seen = [False] * p
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == p


def reference_bfs_spanning_tree(g: Graph, root: int = 0) -> SpanningTree:
    """Breadth-first tree rooted at `root`, exploring neighbors in ascending order."""
    parent: list = [None] * g.p
    depth = [-1] * g.p
    depth[root] = 0
    order = [root]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in g.adjacency[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                parent[v] = u
                order.append(v)
    for v in range(g.p):
        if depth[v] < 0:
            raise ProtocolError(f"vertex {v} unreachable from root {root}")
    children = [[] for _ in range(g.p)]
    for v in range(g.p):
        if parent[v] is not None:
            children[parent[v]].append(v)
    children = [sorted(c) for c in children]
    return SpanningTree(root=root, parent=parent, children=children, depth=depth,
                        build_messages=2 * g.num_edges - (g.p - 1))


def reference_validate_connectivity_window(s: TvSchedule) -> int:
    """Smallest window length whose every union of consecutive subgraphs connects.

    Scans all cyclic windows over one period; the union property guarantees
    the answer is at most the period.
    """
    if not s.base.is_connected():
        raise AssumptionViolation("base graph is disconnected")
    for w in range(1, s.period + 1):
        ok = True
        for start in range(s.period):
            union = set()
            for off in range(w):
                union.update(s.subgraphs[(start + off) % s.period])
            if not reference_is_connected(s.p, union):
                ok = False
                break
        if ok:
            return w
    raise AssumptionViolation("no window of one period connects")  # unreachable


def outcome(fn, *args):
    """What fn returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ProtocolError, AssumptionViolation) as exc:
        return type(exc), str(exc)


@st.composite
def edge_lists(draw, max_p=30):
    """(p, edges): random pairs, plus a random spanning tree when `connected`
    is drawn, so both connected and disconnected graphs come up."""
    p = draw(st.integers(1, max_p))
    pairs = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=2 * p)) if p > 1 else []
    if draw(st.booleans()):
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(1, p)]
    return p, edges


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.sampled_from(["sorted", "shuffled", "set"]), st.randoms())
def test_connectivity_matches_depth_first_oracle(case, form, rnd):
    p, edges = case
    if form == "sorted":
        edges = sorted(edges)
    elif form == "shuffled":
        rnd.shuffle(edges)
    else:
        edges = set(edges)
    assert _is_connected(p, edges) == reference_is_connected(p, edges)


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.data())
def test_spanning_tree_matches_reference(case, data):
    p, edges = case
    g = Graph(p=p, edges=edges)
    root = data.draw(st.integers(0, p - 1))
    got = outcome(bfs_spanning_tree, g, root)
    want = outcome(reference_bfs_spanning_tree, g, root)
    if isinstance(want, SpanningTree):
        assert (got.root, got.parent, got.children, got.depth, got.build_messages) == (
            want.root, want.parent, want.children, want.depth, want.build_messages)
    else:
        assert got == want


@st.composite
def schedules(draw):
    """A schedule of period 1-8 over a random graph: each base edge lands in a
    random nonempty set of steps.  Some bases are disconnected."""
    p, edges = draw(edge_lists(max_p=12))
    base = Graph(p=p, edges=edges)
    period = draw(st.integers(1, 8))
    subgraphs: list = [[] for _ in range(period)]
    for e in base.edges:
        steps = draw(st.sets(st.integers(0, period - 1), min_size=1))
        for t in steps:
            subgraphs[t].append(e)
    return TvSchedule(base=base, subgraphs=subgraphs)


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_window_matches_scan_of_every_length(schedule):
    assert (outcome(validate_connectivity_window, schedule)
            == outcome(reference_validate_connectivity_window, schedule))


@st.composite
def long_window_schedules(draw):
    """A spanning tree whose edges are dealt over the period, each edge to one
    step and each step at least one edge, so every window shorter than the
    period misses a bridge and the window is the whole period."""
    p = draw(st.integers(2, 12))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, p)]
    period = draw(st.integers(1, p - 1))
    steps = list(range(period)) + draw(st.lists(st.integers(0, period - 1),
                                                min_size=p - 1 - period,
                                                max_size=p - 1 - period))
    steps = draw(st.permutations(steps))
    subgraphs: list = [[] for _ in range(period)]
    for e, t in zip(edges, steps):
        subgraphs[t].append(e)
    return TvSchedule(base=Graph(p=p, edges=edges), subgraphs=subgraphs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(schedules(), long_window_schedules()))
def test_window_matches_one_bfs_per_window(schedule):
    # schedules() gives empty steps, single agents and disconnected bases
    assert (outcome(validate_connectivity_window, schedule)
            == outcome(bfs_validate_connectivity_window, schedule))


@settings(max_examples=100, deadline=None)
@given(long_window_schedules())
def test_window_as_long_as_the_period(schedule):
    assert validate_connectivity_window(schedule) == schedule.period
