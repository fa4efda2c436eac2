"""Gram matrices: factored finite form, closed-form limit, MC agreement."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from natgrad import (
    Dataset,
    OptimizerConfig,
    activation_pattern,
    check_conditions,
    finite_gram,
    forster_transform,
    hadamard_bounds,
    init_network,
    jacobian,
    limiting_gram,
    mc_limiting_gram,
    min_eig,
    pre_activation_gram,
    spectrum,
    synth_sphere,
    train,
)
from natgrad import gram


@pytest.fixture
def ds():
    return synth_sphere(9, 4, seed=0)


def test_finite_gram_equals_dense_product(ds):
    p = init_network(20, 4, nu=1.0, seed=1)
    G = finite_gram(jacobian(p, ds.X))
    J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
    assert np.max(np.abs(G - J @ J.T)) < 1e-13
    assert np.allclose(G, G.T)


def test_finite_gram_factors_through_pattern(ds):
    p = init_network(20, 4, nu=1.0, seed=1)
    S = activation_pattern(p, ds.X)
    G = finite_gram(jacobian(p, ds.X))
    P = pre_activation_gram(S)
    assert np.max(np.abs(G - (ds.X @ ds.X.T) * P)) < 1e-14
    assert P.max() <= 1.0


def test_coactivation_counts_are_exact():
    rng = np.random.default_rng(0)
    S = rng.integers(-1, 2, size=(7, 5000))
    C = gram.coactivation(S.astype(float))
    assert C.dtype == np.float64
    assert np.array_equal(C, (S @ S.T).astype(float))  # int64 reference
    B = S != 0  # a 0/1 pattern given as bool
    assert np.array_equal(gram.coactivation(B), (B.astype(int) @ B.T.astype(int)).astype(float))


def test_pre_activation_gram_is_float64_count_product(ds):
    S = activation_pattern(init_network(1000, 4, nu=1.0, seed=1), ds.X)
    F = S.astype(np.float64)
    assert np.array_equal(pre_activation_gram(S), (F @ F.T) / 1000)


def test_pattern_gram_in_place_matches_out_of_place_product(ds):
    # scaling the counts in place gives the bits of XXt * ((S S^T) / m),
    # for a 0/1 pattern and for a {-1, 0, 1} difference of patterns,
    # and leaves X X^T as it was
    XXt = ds.X @ ds.X.T
    before = XXt.copy()
    S = activation_pattern(init_network(1000, 4, nu=1.0, seed=1), ds.X).astype(np.float64)
    S0 = activation_pattern(init_network(1000, 4, nu=1.0, seed=2), ds.X).astype(np.float64)
    for P in (S, S - S0):
        assert np.array_equal(gram.pattern_gram(XXt, P), XXt * ((P @ P.T) / 1000))
    assert np.array_equal(XXt, before)


def test_guarded_solve_is_the_direct_solve_behind_a_cholesky_guard():
    # lambda_min > PD_FLOOR: the eigendecomposition oracle's solution,
    # within 1e-14 cond(A); lambda_min at or below the floor, or
    # indefinite: None.  A is never written.
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 6))
    A = B @ B.T + np.eye(6)
    rhs = rng.standard_normal((6, 2))
    before = A.copy()
    expected = oracles.eig_solve(A, rhs)
    got = gram.guarded_solve(A, rhs)
    assert np.abs(got - expected).max() <= 1e-14 * np.linalg.cond(A) * np.abs(expected).max()
    assert np.array_equal(A, before)
    assert gram.guarded_solve(np.diag([1.0, 2.0 * gram.PD_FLOOR]), np.ones(2)) is not None
    for lam in (gram.PD_FLOOR / 2, 0.0, -1.0):
        assert gram.guarded_solve(np.diag([1.0, lam]), np.ones(2)) is None


def spd_with_spectrum(lam, seed):
    """Q diag(lam) Q^T for a random orthogonal Q, symmetrized."""
    n = len(lam)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("cols", [None, 3])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
def test_guarded_solve_matches_eigen_oracle(n, cols):
    # panel edges (64 rows) and a vector or n x k right-hand side.  The
    # factor is of A - PD_FLOOR I, whose solve alone is off by
    # PD_FLOOR / (lambda_min - PD_FLOOR) along the bottom eigenvector: a
    # ninth at lambda_min = 10 PD_FLOOR, five times at 1.2 PD_FLOOR.  Those
    # matrices are scaled near the floor with cond(A) = 4, so roundoff
    # cannot hide the shift; one refinement step does not converge there,
    # and the LU solve they get is as accurate as cond 4 allows.  Just
    # under the floor the guard returns None.
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal(n if cols is None else (n, cols))
    well = spd_with_spectrum(np.geomspace(1e-2, 10.0, n), seed=n)
    expected = oracles.eig_solve(well, rhs)
    err = np.abs(gram.guarded_solve(well, rhs) - expected).max()
    assert err <= 1e-14 * np.linalg.cond(well) * np.abs(expected).max()

    for floor_multiple in (10.0, 1.2):
        lam = floor_multiple * gram.PD_FLOOR * np.linspace(1.0, 4.0, n)
        near = spd_with_spectrum(lam, seed=n)
        assert oracles.pd_guard_eig(near, 0.0) is False
        expected = oracles.eig_solve(near, rhs)
        err = np.abs(gram.guarded_solve(near, rhs) - expected).max()
        assert err <= 1e-12 * np.abs(expected).max()

    under = spd_with_spectrum(
        np.concatenate([[0.9 * gram.PD_FLOOR], 10 * gram.PD_FLOOR * np.ones(n - 1)]), seed=n
    )
    assert oracles.pd_guard_eig(under, 0.0) is True
    assert gram.guarded_solve(under, rhs) is None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 300),
    log_floor_multiple=st.floats(math.log10(0.5), 12.0),
    log_cond=st.floats(0.0, 8.0),
    cols=st.sampled_from([None, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_guarded_solve_agrees_with_eigen_oracle(n, log_floor_multiple, log_cond, cols, seed):
    # n spans the 64-row panel edges and ragged sizes up to five panels,
    # lambda_min runs from half the floor to 1e12 times it, and cond(A) up
    # to 1e8 keeps the guard's roundoff far below the 1% band around the
    # floor that is left out
    floor_multiple = 10.0**log_floor_multiple
    assume(abs(floor_multiple - 1.0) > 0.01)
    lam_min = floor_multiple * gram.PD_FLOOR
    A = spd_with_spectrum(lam_min * np.geomspace(1.0, 10.0**log_cond, n), seed=seed)
    rhs = np.random.default_rng(seed).standard_normal(n if cols is None else (n, cols))
    got = gram.guarded_solve(A, rhs)
    assert (got is None) == oracles.pd_guard_eig(A, 0.0)
    if got is not None:
        expected = oracles.eig_solve(A, rhs)
        err = np.abs(got - expected).max()
        assert err <= 1e-13 * np.linalg.cond(A) * np.abs(expected).max()


@pytest.mark.parametrize("n", [16, 50, 300])
def test_guarded_solve_within_a_percent_of_the_floor_is_as_accurate_as_lu(n):
    # cond(A) about 1e12: the refined substitution solve is far off here,
    # and the result must be no worse than a plain LU solve's
    A = spd_with_spectrum(np.geomspace(1.01 * gram.PD_FLOOR, 1.0, n), seed=n)
    rhs = np.random.default_rng(n).standard_normal((n, 3))
    expected = oracles.eig_solve(A, rhs)
    err = np.abs(gram.guarded_solve(A, rhs) - expected).max()
    assert err <= 2.0 * np.abs(np.linalg.solve(A, rhs) - expected).max()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 300, 1024])
def test_shifted_cholesky_matches_one_lapack_factor(n):
    # the panel-by-panel factor of A - PD_FLOOR I against one LAPACK call
    # on the whole shifted matrix, across the 64-column panel edges; each
    # panel's inverse, which the substitution applies, inverts its block
    A = spd_with_spectrum(np.geomspace(1e-2, 10.0, n), seed=n)
    before = A.copy()
    L, inverses = gram._shifted_cholesky(A)
    expected = oracles.cholesky_shifted(A)
    assert np.abs(L - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.array_equal(A, before)
    panels = range(0, n, gram.SOLVE_PANEL)
    assert len(inverses) == len(panels)
    for lo, inv in zip(panels, inverses):
        hi = min(lo + gram.SOLVE_PANEL, n)
        assert np.abs(inv @ L[lo:hi, lo:hi] - np.eye(hi - lo)).max() <= 1e-13


def test_guarded_solve_factors_once_on_a_well_conditioned_matrix(monkeypatch):
    # one factorization and no LU of A: np.linalg.cholesky factors each
    # diagonal block once and np.linalg.solve inverts each factor block
    # once, both ceil(n / SOLVE_PANEL) times on at most SOLVE_PANEL rows
    n = 200
    A = spd_with_spectrum(np.geomspace(1e-2, 10.0, n), seed=0)
    rhs = np.random.default_rng(0).standard_normal((n, 3))
    calls = {"cholesky_rows": [], "solve_rows": []}
    cholesky, solve = np.linalg.cholesky, np.linalg.solve

    def counted_cholesky(a):
        calls["cholesky_rows"].append(a.shape[0])
        return cholesky(a)

    def counted_solve(a, b):
        calls["solve_rows"].append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    assert gram.guarded_solve(A, rhs) is not None
    panels = math.ceil(n / gram.SOLVE_PANEL)
    for rows in calls.values():
        assert len(rows) == panels and max(rows) <= gram.SOLVE_PANEL


@pytest.mark.parametrize("m", [8, 1000, 32768])
def test_jacobian_drift_is_exactly_zero_without_flips(ds, m):
    p = init_network(m, 4, nu=1.0, seed=2)
    moved = p.with_weights(2.0 * p.w)  # exact scaling keeps every sign
    S0 = activation_pattern(p, ds.X)
    S = activation_pattern(moved, ds.X)
    assert np.array_equal(S, S0)
    assert gram.jacobian_drift(ds.X @ ds.X.T, S, S0) == 0.0
    assert check_conditions(moved, ds).jacobian_drift == 0.0


def test_jacobian_drift_matches_dense_norm_under_many_flips(ds):
    p = init_network(64, 4, nu=1.0, seed=3)
    rng = np.random.default_rng(4)
    moved = p.with_weights(p.w + 0.3 * rng.standard_normal(p.w.shape))
    S0 = activation_pattern(p, ds.X)
    S = activation_pattern(moved, ds.X)
    assert not np.array_equal(S, S0)
    J0 = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
    J = oracles.dense_jacobian_loops(moved.w, p.a, ds.X)
    drift = gram.jacobian_drift(ds.X @ ds.X.T, S, S0)
    assert drift == pytest.approx(np.linalg.norm(J - J0, 2), rel=1e-12)


def test_limiting_gram_diagonal_is_exactly_half(ds):
    M = limiting_gram(ds)
    assert np.array_equal(np.diag(M), np.full(ds.n, 0.5))


def test_limiting_gram_matches_entry_formula(ds):
    M = limiting_gram(ds)
    for i in range(ds.n):
        for j in range(ds.n):
            if i == j:
                continue
            t = float(np.clip(ds.X[i] @ ds.X[j], -1.0, 1.0))
            expected = t * (np.pi - np.arccos(t)) / (2 * np.pi)
            assert M[i, j] == pytest.approx(expected, abs=1e-15)


def test_limiting_gram_positive_definite_for_generic_data(ds):
    assert min_eig(limiting_gram(ds)) > 0


def test_mc_estimate_brackets_closed_form(ds):
    exact = limiting_gram(ds)
    est, se = mc_limiting_gram(ds, samples=40000, seed=0)
    # off-diagonal SEs are estimates themselves; allow 5 of them plus slack
    gap = np.abs(est - exact)
    assert np.all(gap <= 5.0 * se + 1e-4)
    assert np.all(np.diag(se) >= 0)


def test_mc_estimate_pass_size_invariant(ds, monkeypatch):
    # the counts are exact integers, so the pass size leaves every bit alone
    row_bytes = 8 * max(ds.n, ds.d)
    results = []
    # one pass, many with a short last one, whole passes, one draw per pass
    for budget in (3000 * row_bytes, 257 * row_bytes, 1000 * row_bytes, 1):
        monkeypatch.setattr(gram, "MC_PASS_BYTES", budget)
        results.append(mc_limiting_gram(ds, samples=3000, seed=2))
    for est, se in results[1:]:
        assert np.array_equal(est, results[0][0])
        assert np.array_equal(se, results[0][1])


def test_mc_estimate_rejects_bad_sample_count(ds):
    with pytest.raises(ValueError, match="samples"):
        mc_limiting_gram(ds, samples=0, seed=0)


def test_eig_helpers():
    M = np.diag([3.0, 1.0, 2.0])
    assert min_eig(M) == 1.0
    assert spectrum(M)[-1] == 3.0
    with pytest.raises(ValueError, match="square"):
        min_eig(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hadamard_bounds_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        RA = rng.standard_normal((k, k))
        RB = rng.standard_normal((k, k))
        A = RA @ RA.T + 0.1 * np.eye(k)
        B = RB @ RB.T + 0.1 * np.eye(k)
        lo, hi = hadamard_bounds(A, B)
        eigs = np.linalg.eigvalsh(A * B)
        assert eigs[0] >= lo - 1e-10
        assert eigs[-1] <= hi + 1e-10


def test_hadamard_bounds_rejects_bad_inputs():
    good = np.eye(3)
    with pytest.raises(ValueError, match="not symmetric"):
        hadamard_bounds(np.triu(np.ones((3, 3))), good)
    with pytest.raises(ValueError, match="positive definite"):
        hadamard_bounds(np.diag([1.0, -1.0, 1.0]), good)


def test_gram_csv_export(tmp_path, ds):
    G = limiting_gram(ds)
    path = tmp_path / "gram.csv"
    path.write_bytes(gram.csv_text(G).encode())
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, G)
    assert path.read_bytes().count(b"\r\n") == ds.n


@st.composite
def drift_cases(draw):
    """(X X^T, S, S0, kind) above the Lanczos crossover: random unit rows
    and patterns, with D = S - S0 zero, one unit wide, random, or made of
    two blocks of nearly equal rows (a near-tied top pair)."""
    n = draw(st.integers(gram.LANCZOS_MIN_N + 1, 400))
    d = draw(st.integers(2, 8))
    m = draw(st.integers(2, 96))
    kind = draw(st.sampled_from(["zero", "one_unit", "random", "near_tie"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    X = rng.standard_normal((n, d))
    S0 = rng.random((n, m)) < 0.5
    S = S0.copy()
    if kind == "one_unit":
        S[:, 0] = rng.random(n) < 0.5
    elif kind == "random":
        S ^= rng.random((n, m)) < draw(st.sampled_from([0.01, 0.1, 0.5]))
    elif kind == "near_tie":
        half = n // 2
        X[half : 2 * half] = X[:half] + 1e-7 * rng.standard_normal((half, d))
        S[:half, 0] = ~S0[:half, 0]  # unit 0 flips on one half, unit 1 on the other
        S[half : 2 * half, 1] = ~S0[half : 2 * half, 1]
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X @ X.T, S, S0, kind


@settings(derandomize=True, max_examples=60, deadline=None)
@given(drift_cases())
def test_lanczos_drift_agrees_with_eigvalsh(case):
    """Above the crossover the drift's top eigenvalue comes from Lanczos,
    within 1e-12 relative of eigvalsh's, unless it fell back to eigvalsh;
    a zero D gives exactly 0.0."""
    XXt, S, S0, kind = case
    M = gram.pattern_gram(XXt, np.subtract(S, S0, dtype=np.float32))
    reference = float(np.linalg.eigvalsh(M)[-1])
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        drift = gram.jacobian_drift(XXt, S, S0)
    if kind == "zero":
        assert drift == 0.0 and eigvalsh.call_count == 0
    elif eigvalsh.call_count == 0:
        assert drift**2 == pytest.approx(reference, rel=1e-12)
    else:
        assert drift == math.sqrt(max(0.0, reference))


def test_lanczos_drift_takes_no_eigvalsh_at_the_large_n_shape():
    raw = synth_sphere(1024, 32, seed=1)
    ds = Dataset(forster_transform(raw.X).Z, raw.y)
    p = init_network(4096, 32, nu=1.0, seed=2)
    trace = train(p, ds, OptimizerConfig(method="ngd_exact", eta=0.5, damping=0.0, max_steps=3))
    XXt = ds.X @ ds.X.T
    S0 = activation_pattern(p, ds.X)
    S = activation_pattern(trace.final_params, ds.X)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        drift = gram.jacobian_drift(XXt, S, S0)
    assert eigvalsh.call_count == 0
    M = gram.pattern_gram(XXt, np.subtract(S, S0, dtype=np.float32))
    assert drift**2 == pytest.approx(np.linalg.eigvalsh(M)[-1], rel=1e-12)


def test_lanczos_drift_falls_back_to_eigvalsh_at_the_step_cap(monkeypatch):
    rng = np.random.default_rng(7)
    n, m = gram.LANCZOS_MIN_N + 8, 32
    X = rng.standard_normal((n, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    S0 = rng.random((n, m)) < 0.5
    S = S0 ^ (rng.random((n, m)) < 0.3)
    XXt = X @ X.T
    M = gram.pattern_gram(XXt, np.subtract(S, S0, dtype=np.float32))
    monkeypatch.setattr(gram, "LANCZOS_MAX_ITERS", 2)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        drift = gram.jacobian_drift(XXt, S, S0)
    assert eigvalsh.call_count == 1
    assert drift == math.sqrt(np.linalg.eigvalsh(M)[-1])
