"""Radial isotropy transform: fixed point, convergence, failure modes."""
import numpy as np
import pytest

from natgrad import (
    NonConvergenceError,
    RankDeficiencyError,
    forster_transform,
    inverse_sqrt_psd,
    normalize_rows,
    synth_sphere,
)


def isotropy_error(Z, n, d):
    return np.linalg.norm(Z.T @ Z - (n / d) * np.eye(d), "fro")


def test_normalize_rows():
    M = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]])
    N = normalize_rows(M)
    assert np.allclose(N[0], [0.6, 0.8])
    assert np.array_equal(N[1], [0.0, 0.0])  # zero row passes through
    assert np.allclose(N[2], [0.0, -1.0])


def test_inverse_sqrt_psd_inverts():
    rng = np.random.default_rng(0)
    R = rng.standard_normal((5, 5))
    M = R @ R.T + 0.5 * np.eye(5)
    T = inverse_sqrt_psd(M)
    assert np.allclose(T, T.T)
    assert np.allclose(T @ M @ T, np.eye(5), atol=1e-10)


def test_inverse_sqrt_psd_rejects_singular():
    M = np.diag([1.0, 0.0])
    with pytest.raises(RankDeficiencyError, match="below floor"):
        inverse_sqrt_psd(M)


def test_transform_reaches_isotropy():
    ds = synth_sphere(24, 6, seed=0)
    res = forster_transform(ds.X)
    n, d = ds.X.shape
    assert res.final_error <= 1e-8
    assert isotropy_error(res.Z, n, d) == pytest.approx(res.final_error)
    assert np.allclose(np.linalg.norm(res.Z, axis=1), 1.0)
    # the accumulated map reproduces Z from the raw inputs
    assert np.allclose(normalize_rows(ds.X @ res.A), res.Z, atol=1e-12)
    assert res.A[0, 0] == 1.0
    assert not res.rescale_skipped


def test_transform_error_sequence():
    ds = synth_sphere(16, 4, seed=1)
    res = forster_transform(ds.X)
    assert len(res.errors) == res.iterations + 1
    assert res.errors[-1] == res.final_error
    assert res.errors[0] > res.errors[-1]


def test_transform_fixed_point_is_instant():
    # two copies of each standard basis vector: Z^T Z = 2 I = (8/4) I
    X = np.vstack([np.eye(4), np.eye(4)])
    res = forster_transform(X)
    assert res.iterations == 0
    assert np.array_equal(res.A, np.eye(4))
    assert np.array_equal(res.Z, X)


def test_transform_handles_skewed_inputs():
    # strongly anisotropic cloud: squash two coordinates, renormalize
    ds = synth_sphere(40, 5, seed=7)
    X = normalize_rows(ds.X * np.array([1.0, 1.0, 1.0, 0.05, 0.01]))
    res = forster_transform(X)
    assert res.final_error <= 1e-8
    assert res.iterations > 1


def test_transform_rejects_rank_deficient_inputs():
    ds = synth_sphere(10, 3, seed=2)
    X = ds.X.copy()
    X[:, 2] = 0.0  # all rows in a 2-d subspace of R^3
    X = normalize_rows(X)
    with pytest.raises(RankDeficiencyError):
        forster_transform(X)


# rows crowding a subspace: a k-dimensional one holds more than k n / d of
# them, so no radial isotropic position exists
NO_POSITION = {
    "3_of_4_in_a_plane": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.2, 1]],
    "5_of_8_in_a_plane": [
        [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [1, -1, 0, 0], [2, 1, 0, 0],
        [0, 0, 1, 0], [0, 0, 0, 1], [0.3, 0.2, 0.5, 1],
    ],
}


@pytest.mark.parametrize("rows", list(NO_POSITION.values()), ids=list(NO_POSITION))
def test_transform_refuses_inputs_with_no_position(rows):
    # the loop's error still falls below tol, but A degenerates (cond ~1e17)
    # and the converged rows are no image of the input under it
    with pytest.raises(NonConvergenceError, match="may have no radial isotropic position"):
        forster_transform(normalize_rows(np.array(rows, dtype=float)))


def test_transform_budget_exhaustion():
    ds = synth_sphere(12, 4, seed=3)
    with pytest.raises(NonConvergenceError) as err:
        forster_transform(ds.X, max_iter=0)
    assert err.value.final_error is not None
    assert err.value.final_error > 1e-8
    assert "0 iterations" in str(err.value)


@pytest.mark.parametrize(
    "budget, message",
    [
        ({"max_iter": -1}, "max_iter must be >= 0, got -1"),
        ({"tol": -1.0}, "tol must be finite and >= 0, got -1.0"),
        ({"tol": float("nan")}, "tol must be finite and >= 0, got nan"),
        ({"tol": float("inf")}, "tol must be finite and >= 0, got inf"),
    ],
    ids=["max_iter", "tol_negative", "tol_nan", "tol_inf"],
)
def test_transform_rejects_bad_budget(budget, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        forster_transform(synth_sphere(12, 4, seed=3).X, **budget)


def test_transform_rejects_wide_matrix():
    with pytest.raises(ValueError, match="n >= d"):
        forster_transform(np.ones((3, 5)))


def test_transform_conditions_covariance():
    ds = synth_sphere(64, 8, seed=0)
    res = forster_transform(ds.X)
    eigs = np.linalg.eigvalsh(res.Z.T @ res.Z)
    assert eigs[-1] / eigs[0] == pytest.approx(1.0, abs=1e-8)
    assert eigs[0] == pytest.approx(64 / 8, abs=1e-8)
