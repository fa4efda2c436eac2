"""Gram matrices of the network Jacobian and their infinite-width limit.

The limiting Gram has the closed form

    G_inf[i, j] = x_i.x_j * (pi - arccos(x_i.x_j)) / (2 pi),

the expectation over Gaussian weights of x_i.x_j 1{w.x_i >= 0, w.x_j >= 0}.
At finite width the Gram of the Jacobian is the entrywise (Hadamard)
product of X X^T and S S^T / m, which is how it is computed here, from
the factored Jacobian: finite_gram is the one J J^T in the package, and
coactivation forms every count product S S^T (K-FAC's too).  Every
builder returns the n x n array itself.  guarded_solve is the one PD
guard and direct solve: the output Gram, both K-FAC factors and G_inf go
through it.  spectrum is the symmetry-checked eigenvalue solve that every
other module's eigenvalues go through (min_eig reads its bottom end).
Spectral helpers include the Hadamard-product eigenvalue bounds relating
the factors' spectra to the product's.
"""
from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .network import JacobianView

SYMMETRY_TOL = 1e-9
PD_FLOOR = 1e-12  # lambda_min (+ damping) a matrix needs to count as positive definite
FLOAT32_EXACT_LIMIT = 2**24  # float32 represents every integer of smaller magnitude


def limiting_gram(ds: Dataset) -> np.ndarray:
    """Closed-form infinite-width Gram of a validated dataset.

    Inner products are clamped to [-1, 1] before arccos (roundoff near
    +-1 would otherwise produce NaN), and the diagonal is evaluated at
    inner product exactly 1, giving entries of exactly 1/2 for unit rows.
    """
    inner = ds.X @ ds.X.T
    np.fill_diagonal(inner, 1.0)  # rows are unit norm by contract
    inner = np.clip(inner, -1.0, 1.0)
    return inner * (np.pi - np.arccos(inner)) / (2.0 * np.pi)


def csv_text(M: np.ndarray) -> str:
    """M as CSV: one row per line, ended "\\r\\n" as RFC 4180, entries in repr.

    repr of a float64 round-trips exactly, so np.loadtxt(..., delimiter=",")
    reads back M bit for bit.
    """
    return "".join(",".join(repr(float(v)) for v in row) + "\r\n" for row in M)


def coactivation(S: np.ndarray) -> np.ndarray:
    """S S^T for an n x m pattern with entries in {-1, 0, 1}, as float64.

    Every entry and every partial sum of the product is an integer of
    magnitude at most m, which float32 holds exactly while m < 2^24, so
    the product runs in float32 (about twice as fast) with no rounding.
    Wider patterns use float64.
    """
    F = S.astype(np.float32 if S.shape[1] < FLOAT32_EXACT_LIMIT else np.float64, copy=False)
    return (F @ F.T).astype(np.float64)


def pre_activation_gram(S: np.ndarray) -> np.ndarray:
    """(1/m) S S^T from the 0/1 pattern S, scaled in place; diagonal at
    most 1.  K-FAC's unit factor, and X X^T o this is the finite Gram."""
    C = coactivation(S)
    C /= S.shape[1]
    return C


def pattern_gram(XXt: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(X X^T) o (S S^T) / m, formed in place, for S in {-1, 0, 1}^(n x m)."""
    G = pre_activation_gram(S)
    G *= XXt
    return G


def finite_gram(jv: JacobianView) -> np.ndarray:
    """J J^T via the factored formula: entrywise product of X X^T with
    S S^T / m.

    The signs a_r square away, so only the 0/1 pattern enters: the
    co-activation counts are exact, and no dense Jacobian is needed.
    """
    return pattern_gram(jv.X @ jv.X.T, jv.S)


def jacobian_drift(XXt: np.ndarray, S: np.ndarray, S0: np.ndarray) -> float:
    """||J - J0||_2 through n x n products only.

    XXt is X X^T; S and S0 are the 0/1 (or bool) activation patterns of
    J and J0.  J - J0 is the Jacobian factor pair (X, D a / sqrt(m)) with
    D = S - S0 in {-1, 0, 1}, so (J - J0)(J - J0)^T = (X X^T) o (D D^T) / m
    and the spectral norm is the square root of its top eigenvalue.  The
    counts D D^T are exact, so an unchanged pattern gives exactly 0.
    """
    D = np.subtract(S, S0, dtype=np.float32)  # exact: entries in {-1, 0, 1}
    top = float(np.linalg.eigvalsh(pattern_gram(XXt, D))[-1])
    return math.sqrt(max(0.0, top))


def mc_limiting_gram(
    ds: Dataset,
    nu: float,
    samples: int,
    seed: int,
    chunk: int = 20000,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the limiting Gram, with standard errors.

    Draws w ~ N(0, nu^2 I) and averages x_i.x_j 1{w.x_i >= 0, w.x_j >= 0}.
    The indicator events are scale invariant, so the estimate does not
    depend on nu (the draws are still made at scale nu).  Returns the
    estimate and the entrywise standard-error matrix
    |x_i.x_j| sqrt(p(1-p)/samples) from the estimated co-activation
    frequency p.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    counts = np.zeros((ds.n, ds.n))
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        W = nu * rng.standard_normal((take, ds.d))
        P = W @ ds.X.T >= 0.0  # ties count as active
        counts += coactivation(P.T)
        done += take
    freq = counts / samples
    inner = ds.X @ ds.X.T
    stderr = np.abs(inner) * np.sqrt(freq * (1.0 - freq) / samples)
    return inner * freq, stderr


def guarded_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """np.linalg.solve(A, rhs) if A - PD_FLOOR I has a Cholesky factor, the
    guard for lambda_min(A) > PD_FLOOR (safely positive definite); else None."""
    shifted = A.copy()
    shifted.flat[:: A.shape[0] + 1] -= PD_FLOOR
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(A, rhs)


def spectrum(M, name: str = "matrix") -> np.ndarray:
    """Eigenvalues of a square symmetric matrix, ascending, by a symmetric
    solver after a symmetry check; raw, not clipped.  One call gives both
    ends of a spectrum."""
    M = np.asarray(M, dtype=float)
    _check_symmetric(M, name)
    return np.linalg.eigvalsh(M)


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of a square symmetric matrix, spectrum(M)[0]."""
    return float(spectrum(M)[0])


def hadamard_bounds(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Eigenvalue bounds for the Hadamard product of two PD matrices.

    Returns (min_i A_ii * lambda_min(B), max_i A_ii * lambda_max(B)).
    The first bounds the smallest eigenvalue of the entrywise product
    A * B from below, the second bounds its largest from above.  Both
    inputs must be symmetric positive definite.
    """
    for name, M in (("A", A), ("B", B)):
        lam = spectrum(M, name)  # B's spectrum after the loop
        if lam[0] <= 0:
            raise ValueError(f"{name} is not positive definite (lambda_min = {lam[0]:.3e})")
    diag = np.diag(np.asarray(A, dtype=float))
    return float(diag.min() * lam[0]), float(diag.max() * lam[-1])


def _check_symmetric(M: np.ndarray, name: str) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    skew = np.abs(M - M.T).max() if M.size else 0.0
    if skew > SYMMETRY_TOL:
        raise ValueError(f"{name} is not symmetric (max |M - M.T| = {skew:.3e})")
