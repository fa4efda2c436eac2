"""Gram matrices: factored finite form, closed-form limit, MC agreement."""
import numpy as np
import pytest

import oracles
from natgrad import (
    activation_pattern,
    check_conditions,
    finite_gram,
    hadamard_bounds,
    init_network,
    jacobian,
    limiting_gram,
    max_eig,
    mc_limiting_gram,
    min_eig,
    pre_activation_gram,
    synth_sphere,
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
    assert np.array_equal(pre_activation_gram(S), (S @ S.T) / 1000)


@pytest.mark.parametrize("m", [8, 1000, 32768])
def test_jacobian_drift_is_exactly_zero_without_flips(ds, m):
    p = init_network(m, 4, nu=1.0, seed=2)
    moved = p.with_weights(2.0 * p.w)  # exact scaling keeps every sign
    S0 = activation_pattern(p, ds.X)
    S = activation_pattern(moved, ds.X)
    assert np.array_equal(S, S0)
    assert gram.jacobian_drift(ds.X @ ds.X.T, S, S0) == 0.0
    assert check_conditions(p, moved, ds).jacobian_drift == 0.0


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
    est, se = mc_limiting_gram(ds, nu=1.0, samples=40000, seed=0)
    # off-diagonal SEs are estimates themselves; allow 5 of them plus slack
    gap = np.abs(est - exact)
    assert np.all(gap <= 5.0 * se + 1e-4)
    assert np.all(np.diag(se) >= 0)


def test_mc_estimate_scale_invariant(ds):
    a, _ = mc_limiting_gram(ds, nu=0.3, samples=2000, seed=7)
    b, _ = mc_limiting_gram(ds, nu=3.0, samples=2000, seed=7)
    assert np.array_equal(a, b)


def test_mc_estimate_chunk_invariant(ds):
    a, sa = mc_limiting_gram(ds, nu=1.0, samples=3000, seed=2, chunk=3000)
    b, sb = mc_limiting_gram(ds, nu=1.0, samples=3000, seed=2, chunk=257)
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(sa, sb, atol=1e-12)


def test_mc_estimate_rejects_bad_sample_count(ds):
    with pytest.raises(ValueError, match="samples"):
        mc_limiting_gram(ds, nu=1.0, samples=0, seed=0)


def test_eig_helpers():
    M = np.diag([3.0, 1.0, 2.0])
    assert min_eig(M) == 1.0
    assert max_eig(M) == 3.0
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
