"""Iterative transform placing inputs in radial isotropic position.

Given X with n rows in R^d, find an invertible A such that normalizing the
rows of X @ A yields Z with Z.T @ Z = (n/d) * I: the rows stay on the unit
sphere while their second-moment matrix becomes a multiple of the identity,
so the input covariance has condition number 1.  The loop alternates a
whitening step T = (Z.T Z)^(-1/2) with row renormalization, accumulating
the T factors in A.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergenceError, RankDeficiencyError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000
EIG_FLOOR = 1e-14
# largest accepted max |normalize_rows(X A) - Z|: the returned rows must be
# the image of the input under the returned map
RECONSTRUCTION_TOL = 1e-6


@dataclass(frozen=True)
class ForsterResult:
    """Outcome of the transform.

    A is the accumulated d x d map with A[0, 0] rescaled to 1 each
    iteration (skipped, and flagged, should |A[0, 0]| fall below 1e-14);
    Z is the transformed, row-normalized input matrix; errors holds
    ||Z.T Z - (n/d) I||_F before each iteration, ending with final_error.
    """

    A: np.ndarray
    Z: np.ndarray
    iterations: int
    final_error: float
    errors: np.ndarray = field(repr=False)
    rescale_skipped: bool = False


def normalize_rows(M: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm.  Zero rows are left alone
    rather than divided (they cannot be normalized)."""
    M = np.asarray(M, dtype=float)
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    return M / np.where(norms == 0.0, 1.0, norms)


def inverse_sqrt_psd(M: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root via eigendecomposition.

    Raises RankDeficiencyError when any eigenvalue falls below EIG_FLOOR,
    since M^(-1/2) is then meaningless.
    """
    lam, V = np.linalg.eigh(M)
    if lam.min() < EIG_FLOOR:
        raise RankDeficiencyError(
            f"matrix has eigenvalue {lam.min():.3e} below floor {EIG_FLOOR:.0e}; "
            "inverse square root undefined"
        )
    return (V * lam**-0.5) @ V.T


def forster_transform(
    X: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ForsterResult:
    """Run the whitening/renormalization iteration until Z.T Z = (n/d) I.

    Convergence means the Frobenius error drops to tol; an input already at
    the fixed point (unit rows, Z.T Z = (n/d) I) returns immediately with
    iterations=0 and A=I.  Raises RankDeficiencyError if Z.T Z becomes
    (numerically) singular at any iterate, and NonConvergenceError carrying
    the final error if max_iter is exhausted or the returned Z is not
    normalize_rows(X @ A) within RECONSTRUCTION_TOL.  The latter happens
    when X has no radial isotropic position (some k-dimensional subspace
    holds more than k n / d rows): A then degenerates while Z still
    converges.  Raises ValueError unless max_iter >= 0 and tol is finite
    and >= 0.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    target = (n / d) * np.eye(d)

    Z = X.copy()
    A = np.eye(d)
    errors = []
    rescale_skipped = False
    for iteration in range(max_iter + 1):
        ZtZ = Z.T @ Z
        err = float(np.linalg.norm(ZtZ - target, "fro"))
        errors.append(err)
        if err <= tol:
            gap = float(np.max(np.abs(normalize_rows(X @ A) - Z)))
            if not gap <= RECONSTRUCTION_TOL:
                raise NonConvergenceError(
                    f"converged rows are not the image of the input under A (max gap "
                    f"{gap:.3e} after {iteration} iterations); the input may have no "
                    "radial isotropic position",
                    final_error=err,
                )
            return ForsterResult(A, Z, iteration, err, np.array(errors), rescale_skipped)
        if iteration == max_iter:
            break
        T = inverse_sqrt_psd(ZtZ)
        Z = normalize_rows(Z @ T)
        A = A @ T
        if abs(A[0, 0]) >= EIG_FLOOR:
            A = A / A[0, 0]
        else:
            rescale_skipped = True

    raise NonConvergenceError(
        f"no convergence to tol={tol:.1e} in {max_iter} iterations "
        f"(final error {errors[-1]:.3e})",
        final_error=errors[-1],
    )
