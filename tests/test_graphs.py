import numpy as np
import pytest

from distiht.graphs import (AssumptionViolation, Graph, ProtocolError,
                            TvSchedule, bfs_spanning_tree, gen_barabasi_albert,
                            gen_erdos_renyi, gen_geometric, gen_tv_schedule,
                            graph_from_text, graph_to_text, schedule_from_text,
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
        assert t.edge_count() == 11
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
