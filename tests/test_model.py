import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distiht import model
from distiht.cbdiht import run_cbdiht
from distiht.diht import StopRule, run_diht
from distiht.graphs import (gen_barabasi_albert, gen_erdos_renyi, gen_geometric,
                            static_schedule)
from distiht.model import (SensingSlice, _split, generate_problem, lipschitz_of_slice,
                           load_problem, loss_gradient, loss_info, loss_value,
                           mixed_gradients, padded_slices, save_problem, spectral_norm,
                           stacked_lipschitz, support_gradient)


def slice_of(a, b):
    return SensingSlice(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def fd_gradient(sl, x, h=1e-6):
    """Central finite differences of loss_value, the independent oracle."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (loss_value(sl, x + e) - loss_value(sl, x - e)) / (2 * h)
    return g


class TestLossValue:
    def test_zero_case(self):
        sl = slice_of(np.eye(2), [0, 0])
        assert loss_value(sl, np.zeros(2)) == 0.0

    def test_norm_b_at_origin(self):
        sl = slice_of(np.eye(2), [1, 2])
        assert loss_value(sl, np.zeros(2)) == pytest.approx(5.0)

    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        x = rng.standard_normal(4)
        expected = float(np.linalg.norm(a @ x - b) ** 2)
        assert loss_value(slice_of(a, b), x) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        sl = slice_of(np.eye(2), [0, 0])
        with pytest.raises(ValueError):
            loss_value(sl, np.zeros(3))


class TestLossGradient:
    def test_identity_sensing(self):
        sl = slice_of(np.eye(2), [0, 0])
        x = np.array([3.0, -1.0])
        np.testing.assert_allclose(loss_gradient(sl, x), 2 * x)

    def test_against_finite_differences(self):
        sl = slice_of(np.diag([1.0, 2.0]), [1.0, 2.0])
        x = np.zeros(2)
        g = loss_gradient(sl, x)
        np.testing.assert_allclose(g, [-2.0, -8.0], rtol=1e-12)
        np.testing.assert_allclose(g, fd_gradient(sl, x), rtol=1e-6, atol=1e-6)

    def test_zero_at_truth_without_noise(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 6))
        x_star = rng.standard_normal(6)
        sl = slice_of(a, a @ x_star)
        np.testing.assert_allclose(loss_gradient(sl, x_star), np.zeros(6),
                                   atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss_gradient(slice_of(np.eye(2), [0, 0]), np.zeros(5))


class TestLipschitz:
    def test_identity(self):
        assert lipschitz_of_slice(slice_of(np.eye(2), [0, 0])) == pytest.approx(2.0)

    def test_diagonal_vs_eigendecomposition(self):
        a = np.diag([1.0, 3.0])
        expected = 2.0 * np.linalg.eigvalsh(a.T @ a)[-1]
        got = lipschitz_of_slice(slice_of(a, [0, 0]))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(18.0)

    def test_zero_matrix_warns(self):
        with pytest.warns(RuntimeWarning):
            assert lipschitz_of_slice(slice_of(np.zeros((2, 2)), [0, 0])) == 0.0

    def test_near_degenerate_slice_is_exact(self):
        # two nearly equal singular values, where a power iteration stalls
        a = np.zeros((2, 6))
        a[0, 0], a[1, 1] = 1.0, 0.999
        assert lipschitz_of_slice(slice_of(a, [0, 0])) == pytest.approx(2.0, rel=1e-12)

    def test_random_slices_vs_eigendecomposition(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal((4, 9))
            expected = 2.0 * np.linalg.eigvalsh(a.T @ a)[-1]
            assert lipschitz_of_slice(slice_of(a, np.zeros(4))) == pytest.approx(
                expected, rel=1e-8)


class TestGenerateProblem:
    def test_table_dimensions(self):
        prob = generate_problem(1000, 200, 3, 50, seed=4)
        assert [s.a.shape for s in prob.slices] == [(4, 1000)] * 50
        assert np.count_nonzero(prob.x_star) <= 3

    def test_noiseless_consistency(self):
        prob = generate_problem(40, 20, 3, 4, noise_std=0.0, seed=5)
        for sl in prob.slices:
            assert loss_value(sl, prob.x_star) == pytest.approx(0.0, abs=1e-20)

    def test_spectral_cap_via_power_iteration_oracle(self):
        prob = generate_problem(80, 40, 4, 5, spectral_cap=0.99, seed=6)
        a, _ = prob.stacked()
        # independent oracle: plain power iteration on the Gram
        gram = a @ a.T
        v = np.ones(gram.shape[0])
        for _ in range(5000):
            w = gram @ v
            v = w / np.linalg.norm(w)
        lam = float(v @ gram @ v)
        assert lam == pytest.approx(0.99 ** 2, abs=1e-8)

    def test_tight_frame_flat_spectrum(self):
        prob = generate_problem(64, 32, 4, 4, seed=7, ensemble="tight-frame")
        a, _ = prob.stacked()
        sv = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(sv, 0.99, atol=1e-10)

    def test_uneven_rows_go_to_trailing_agents(self):
        prob = generate_problem(20, 10, 2, 3, seed=8)
        assert [s.m_p for s in prob.slices] == [3, 3, 4]

    def test_determinism(self):
        p1 = generate_problem(30, 12, 2, 3, seed=9)
        p2 = generate_problem(30, 12, 2, 3, seed=9)
        np.testing.assert_array_equal(p1.stacked()[0], p2.stacked()[0])
        np.testing.assert_array_equal(p1.x_star, p2.x_star)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_problem(5, 10, 6, 2, seed=0)  # k > n
        with pytest.raises(ValueError):
            generate_problem(5, 0, 1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_problem(5, 3, 1, 4, seed=0)  # more agents than rows


class TestLossInfo:
    def test_subadditivity_and_positivity(self):
        prob = generate_problem(50, 20, 3, 4, seed=10)
        info = loss_info(prob)
        assert info.lipschitz_global <= info.lipschitz_sum + 1e-12
        assert all(l > 0 for l in info.lipschitz_p)

    def test_stacked_constant_is_the_global_one(self):
        prob = generate_problem(50, 20, 3, 4, seed=10)
        a, _ = prob.stacked()
        assert stacked_lipschitz(prob) == loss_info(prob).lipschitz_global
        assert stacked_lipschitz(prob) == 2.0 * spectral_norm(a) ** 2

    def test_stacked_constant_is_computed_once_per_problem(self, monkeypatch, tmp_path):
        prob = generate_problem(40, 20, 3, 4, seed=5)
        a, _ = prob.stacked()
        fresh = 2.0 * spectral_norm(a) ** 2
        shapes = []

        def counting(mat):
            shapes.append(np.shape(mat))
            return spectral_norm(mat)

        monkeypatch.setattr(model, "spectral_norm", counting)
        info = loss_info(prob)
        stop = StopRule(tol=0, max_iters=3)
        for g in (gen_erdos_renyi(4, 0.6, 1), gen_barabasi_albert(4, 2, 2),
                  gen_geometric(4, 0.8, 3)):
            assert run_diht(prob, g, stop=stop).l == 1.005 * fresh
        run_cbdiht(prob, static_schedule(gen_erdos_renyi(4, 0.6, 4)), stop=stop)
        assert shapes.count(a.shape) == 1  # the slices are (5, 40)
        assert info.lipschitz_global == stacked_lipschitz(prob) == fresh
        assert "_stacked_lipschitz" not in repr(prob)
        # a new Problem, even one equal to this one, computes its own
        path = str(tmp_path / "p.npz")
        save_problem(prob, path)
        for other in (load_problem(path), replace(prob)):
            assert stacked_lipschitz(other) == fresh
        assert shapes.count(a.shape) == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gradient_consistency_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal(3)
    x = rng.standard_normal(5)
    sl = slice_of(a, b)
    g = loss_gradient(sl, x)
    fd = fd_gradient(sl, x)
    assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_stack_identities_property(seed):
    rng = np.random.default_rng(seed)
    prob = generate_problem(24, 12, 3, 4, noise_std=0.2,
                            seed=int(rng.integers(2 ** 31)))
    a, b = prob.stacked()
    x = rng.standard_normal(24)
    stacked_val = float(np.linalg.norm(a @ x - b) ** 2)
    summed = sum(loss_value(s, x) for s in prob.slices)
    assert abs(stacked_val - summed) <= 1e-10 * max(1.0, stacked_val)
    g_stack = 2.0 * (a.T @ (a @ x - b))
    g_sum = np.sum([loss_gradient(s, x) for s in prob.slices], axis=0)
    assert np.linalg.norm(g_stack - g_sum) <= 1e-10 * max(
        1.0, float(np.linalg.norm(g_stack)))


def test_problem_roundtrip(tmp_path):
    prob = generate_problem(30, 14, 3, 4, noise_std=0.1, seed=11)
    path = str(tmp_path / "prob.npz")
    save_problem(prob, path)
    back = load_problem(path)
    assert (back.n, back.m, back.k, back.p, back.seed) == (30, 14, 3, 4, 11)
    np.testing.assert_array_equal(back.x_star, prob.x_star)
    for s1, s2 in zip(back.slices, prob.slices):
        np.testing.assert_array_equal(s1.a, s2.a)
        np.testing.assert_array_equal(s1.b, s2.b)


@pytest.mark.parametrize("field, tamper", [
    ("offsets", lambda v: v[:-1]),  # fewer slices than agents
    ("offsets", lambda v: v + 1),  # first slice does not start at row 0
    ("offsets", lambda v: v[[0, 2, 1, 3]]),  # decreasing
    ("offsets", lambda v: np.append(v[:-1], 15)),  # past m
    ("a", lambda v: v[:, :-1]),
    ("b", lambda v: v[:-1]),
    ("x_star", lambda v: np.append(v, 0.0)),
    ("noise", lambda v: v[:-1]),
], ids=["too-few-offsets", "offset-start", "offsets-decrease", "offset-past-m",
        "a-columns", "b-rows", "x_star-length", "noise-length"])
def test_load_rejects_tampered_container(tmp_path, field, tamper):
    path = str(tmp_path / "prob.npz")
    save_problem(generate_problem(30, 14, 3, 4, seed=11), path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays[field] = tamper(arrays[field])
    np.savez(path, **arrays)
    with pytest.raises(ValueError):
        load_problem(path)


def stacked_by_copy(prob):
    """The (A, b) that Problem.stacked rebuilt from the slices on every call
    before it returned the stored pair; kept as an oracle."""
    return (np.vstack([s.a for s in prob.slices]),
            np.concatenate([s.b for s in prob.slices]))


def stacked_case(case, tmp_path):
    if case == "loaded-uneven":
        prob = uneven_problem(tmp_path)
        assert [s.m_p for s in prob.slices] == [1, 5, 2, 6]
        return prob
    prob = generate_problem(30, 16 if case == "uniform" else 14, 3, 4, noise_std=0.1,
                            seed=21, ensemble="tight-frame")
    if case == "loaded":
        path = str(tmp_path / "prob.npz")
        save_problem(prob, path)
        return load_problem(path)
    return replace(prob, seed=22) if case == "replaced" else prob


@pytest.mark.parametrize("case", ["uniform", "uneven", "loaded", "loaded-uneven",
                                  "replaced"])
def test_stacked_returns_read_only_views_of_the_stored_pair(case, tmp_path):
    prob = stacked_case(case, tmp_path)
    a, b = prob.stacked()
    want_a, want_b = stacked_by_copy(prob)
    np.testing.assert_array_equal(a, want_a)
    np.testing.assert_array_equal(b, want_b)
    assert all(np.shares_memory(a, s.a) and np.shares_memory(b, s.b) for s in prob.slices)
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        b[0] = 1.0
    # a write into a slice raises too: every array of a Problem is read-only
    with pytest.raises(ValueError, match="read-only"):
        prob.slices[-1].a[-1, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        prob.slices[-1].b[-1] = np.nan


def test_a_saved_problem_runs_as_the_generated_one(tmp_path):
    # the file keeps the stored matrix's memory order, so a run on the loaded
    # problem takes the same BLAS paths and repeats every bit
    prob = generate_problem(40, 20, 3, 5, seed=23, ensemble="tight-frame")
    path = str(tmp_path / "prob.npz")
    save_problem(prob, path)
    back = load_problem(path)
    assert back.stacked()[0].flags.f_contiguous == prob.stacked()[0].flags.f_contiguous
    graph, stop = gen_erdos_renyi(5, 0.6, 4), StopRule(tol=1e-5, max_iters=200)
    runs = [run_diht(q, graph, stop=stop) for q in (prob, back)]
    assert runs[0].trace.converged_at is not None
    assert runs[0].trace.errors_vs_truth == runs[1].trace.errors_vs_truth
    assert runs[0].trace.step_deltas == runs[1].trace.step_deltas
    assert runs[0].metrics == runs[1].metrics


def test_problems_compare_by_value(tmp_path):
    # the arrays of a loaded problem are not the generated one's; the memos
    # and the slices take no part in ==
    prob = generate_problem(20, 10, 2, 2, seed=1)
    path = str(tmp_path / "prob.npz")
    save_problem(prob, path)
    back = load_problem(path)
    assert not np.shares_memory(prob.a, back.a)
    stacked_lipschitz(prob)
    run_diht(prob, gen_erdos_renyi(2, 1.0, 0), stop=StopRule(tol=1e-5, max_iters=5))
    assert (prob == back) is True and (prob != back) is False
    assert (prob == generate_problem(20, 10, 2, 2, seed=2)) is False
    assert (prob == replace(prob, seed=2)) is False
    b = prob.b.copy()
    b[-1] += 1e-12
    assert (prob == replace(prob, b=b)) is False
    assert (prob == "prob") is False


def test_a_problem_is_read_only_and_leaves_its_inputs_writeable():
    prob = generate_problem(20, 10, 2, 2, noise_std=0.1, seed=1)
    for name in ("x_star", "noise", "a", "b"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(prob, name)[0] = 1.0
    b = prob.b.copy()
    nan_prob = replace(prob, b=b)
    assert b.flags.writeable and np.shares_memory(nan_prob.b, b)
    with pytest.raises(ValueError, match="read-only"):
        nan_prob.slices[0].b[0] = np.nan


@pytest.mark.parametrize("change", [{"x_star": np.zeros(41)}, {"n": 50}, {"m": 21},
                                    {"p": 5}], ids=["x_star-length", "n", "m", "p"])
def test_replace_rejects_inconsistent_fields(change):
    # the constructor's checks are load_problem's, which the tampered-file
    # cases cover field by field
    with pytest.raises(ValueError):
        replace(generate_problem(40, 20, 3, 4, seed=5), **change)


def test_no_run_path_copies_a():
    prob = generate_problem(1000, 80, 3, 8, seed=3, ensemble="tight-frame")
    a = prob.stacked()[0]
    assert a.nbytes >= 2 ** 19
    graph = gen_erdos_renyi(8, 0.5, 1)
    tracemalloc.start()
    try:
        support_gradient(prob)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_diht(prob, graph, stop=StopRule(tol=0, max_iters=3))
        ran = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < a.nbytes / 2 and ran < a.nbytes / 2, (built, ran, a.nbytes)


def uneven_problem(tmp_path):
    """A saved container whose slices hold 1, 5, 2 and 6 rows."""
    path = str(tmp_path / "prob.npz")
    save_problem(generate_problem(30, 14, 3, 4, noise_std=0.1, seed=12), path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays["offsets"] = np.array([0, 1, 6, 8])
    np.savez(path, **arrays)
    return load_problem(path)


def batched_gradients(a: np.ndarray, b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Every slice gradient 2 a_q^T (a_q x_q - b_q) as one (p, n) array, row q
    of xs being agent q's point; a and b come from padded_slices.

    The dense batched kernel that CB-DIHT took its slice gradients with, and
    the subgradient its projection, before model.mixed_gradients replaced
    it; kept as an oracle for the slice stack.
    """
    r = np.matmul(a, xs[:, :, None])[:, :, 0] - b
    return 2.0 * np.matmul(r[:, None, :], a)[:, 0, :]


def gradient_case(case, tmp_path):
    if case == "uneven":
        prob = uneven_problem(tmp_path)
        assert [s.m_p for s in prob.slices] == [1, 5, 2, 6]
        return prob
    return generate_problem(40, 20, 3, 5 if case == "uniform" else 1,
                            noise_std=0.1, seed=13)


@pytest.mark.parametrize("case", ["uniform", "uneven", "one-agent"])
def test_batched_gradients_match_each_slice(case, tmp_path):
    prob = gradient_case(case, tmp_path)
    a, b = padded_slices(prob.slices)
    assert a.shape == (prob.p, max(s.m_p for s in prob.slices), prob.n)
    xs = np.random.default_rng(15).standard_normal((prob.p, prob.n))
    got = batched_gradients(a, b, xs)
    assert got.shape == (prob.p, prob.n)
    for q, sl in enumerate(prob.slices):
        np.testing.assert_allclose(got[q], loss_gradient(sl, xs[q]), rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(got[q])))


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("nonzeros", [3, 0])  # 0: x = 0, an empty support
@pytest.mark.parametrize("case", ["uniform", "uneven", "one-agent", "k=0"])
def test_mixed_gradients_match_weighted_slice_sums(case, nonzeros, j, tmp_path):
    if case == "k=0":  # a zero signal: b is all noise
        prob = generate_problem(40, 20, 0, 5, noise_std=0.1, seed=14)
    else:
        prob = gradient_case(case, tmp_path)
    rng = np.random.default_rng(16)
    x = np.zeros(prob.n)
    support = np.sort(rng.choice(prob.n, size=nonzeros, replace=False))
    x[support] = rng.standard_normal(nonzeros)
    weights = rng.standard_normal((j, prob.p))
    a, b = padded_slices(prob.slices)
    got = mixed_gradients(a, b, x, support, weights)
    grads = np.array([loss_gradient(sl, x) for sl in prob.slices])
    assert got.shape == (j, prob.n)
    for w, row in zip(weights, got):
        want = sum(wq * g for wq, g in zip(w, grads))
        np.testing.assert_allclose(row, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(grads)))
    # unit weights give the network's gradient 2 A^T (A x - b)
    a_full, b_full = prob.stacked()
    total = mixed_gradients(a, b, x, support, np.ones((1, prob.p)))[0]
    np.testing.assert_allclose(total, 2.0 * (a_full.T @ (a_full @ x - b_full)),
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(total)))


def support_case(case, tmp_path):
    if case == "k=0":  # a zero signal: b is all noise
        return generate_problem(40, 20, 0, 5, noise_std=0.1, seed=14)
    if case == "tight-frame":
        return generate_problem(40, 20, 3, 5, noise_std=0.1, seed=17, ensemble="tight-frame")
    return gradient_case(case, tmp_path)


def assert_stacked_gradient(got, prob, x):
    """got is 2 A^T (A x - b) and the sum of the slice gradients, within 1e-12."""
    a, b = prob.stacked()
    for want in (2.0 * (a.T @ (a @ x - b)), sum(loss_gradient(sl, x) for sl in prob.slices)):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("nonzeros", [3, 0])  # 0: x = 0, an empty support
@pytest.mark.parametrize("case", ["uniform", "uneven", "one-agent", "k=0", "tight-frame"])
def test_support_gradient_matches_stacked_and_slice_gradients(case, nonzeros, tmp_path):
    prob = support_case(case, tmp_path)
    rng = np.random.default_rng(18)
    x = np.zeros(prob.n)
    support = rng.choice(prob.n, size=nonzeros, replace=False)  # in no particular order
    x[support] = rng.standard_normal(nonzeros)
    g = support_gradient(prob)
    got = g(x, support)
    assert got.shape == (prob.n,)
    assert_stacked_gradient(got, prob, x)
    assert sorted(g.columns) == sorted(support.tolist())


@settings(max_examples=60, deadline=None)
@given(supports=st.lists(st.lists(st.integers(0, 39), unique=True, max_size=6), max_size=8),
       ensemble=st.sampled_from(["gaussian", "tight-frame"]))
@example(supports=[[], [3], [3, 7], [7, 3, 11, 2], [11], [2, 3], [5, 2, 7], [7, 5, 2], []],
         ensemble="gaussian")  # grows, shrinks and reorders
def test_support_gradient_builds_each_column_once(supports, ensemble):
    prob = generate_problem(40, 20, 3, 5, noise_std=0.1, seed=19, ensemble=ensemble)
    a = prob.stacked()[0]
    values = np.random.default_rng(20).standard_normal(prob.n)
    g = support_gradient(prob)
    seen, built = set(), {}
    for support in (np.array(s, dtype=int) for s in supports):
        x = np.zeros(prob.n)
        x[support] = values[support]
        assert_stacked_gradient(g(x, support), prob, x)
        seen.update(support.tolist())
        assert set(g.columns) == seen  # a column for every index sent, and no other
        assert all(g.columns[j] is col for j, col in built.items())  # none rebuilt
        built = dict(g.columns)
    for j, col in built.items():
        np.testing.assert_allclose(col, 2.0 * (a.T @ a[:, j]), rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(col)))


def split_as_generated(a, b, row_counts):
    """The slice loop generate_problem ran before _split."""
    slices = []
    off = 0
    for rows in row_counts:
        slices.append(SensingSlice(a[off:off + rows], b[off:off + rows]))
        off += rows
    return slices


def split_as_loaded(a, b, offsets, m, p):
    """The slice loop load_problem ran before _split."""
    bounds = offsets.tolist() + [m]
    return [SensingSlice(a[bounds[i]:bounds[i + 1]], b[bounds[i]:bounds[i + 1]])
            for i in range(p)]


@pytest.mark.parametrize("row_counts", [[4] * 5, [1, 5, 2, 6]], ids=["even", "uneven"])
def test_split_matches_both_replaced_loops(row_counts):
    m, p = sum(row_counts), len(row_counts)
    rng = np.random.default_rng(16)
    a, b = rng.standard_normal((m, 7)), rng.standard_normal(m)
    offsets = np.cumsum([0] + row_counts)[:-1]
    got = _split(a, b, offsets)
    for want in (split_as_generated(a, b, row_counts),
                 split_as_loaded(a, b, offsets, m, p)):
        assert len(got) == len(want) == p
        for s1, s2 in zip(got, want):
            np.testing.assert_array_equal(s1.a, s2.a)
            np.testing.assert_array_equal(s1.b, s2.b)
    assert all(np.shares_memory(s.a, a) and np.shares_memory(s.b, b) for s in got)


def write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.arange(3))


@pytest.mark.parametrize("write", [
    lambda path: np.savez(path, a=1),  # a zip archive without the problem's arrays
    lambda path: path.write_bytes(b"PK\x03\x04garbage"),  # a truncated zip
    write_npy,  # one array, not an archive
], ids=["missing-arrays", "truncated", "npy-array"])
def test_load_rejects_an_incomplete_archive(tmp_path, write):
    path = tmp_path / "prob.npz"
    write(path)
    with pytest.raises(ValueError, match="not a complete problem archive"):
        load_problem(str(path))
