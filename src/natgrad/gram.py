"""Gram matrices of the network Jacobian and their infinite-width limit.

The limiting Gram has the closed form

    G_inf[i, j] = x_i.x_j * (pi - arccos(x_i.x_j)) / (2 pi),

the expectation over Gaussian weights of x_i.x_j 1{w.x_i >= 0, w.x_j >= 0}.
At finite width the Gram of the Jacobian is the entrywise (Hadamard)
product of X X^T and S S^T / m, which is how it is computed here, from
the factored Jacobian: finite_gram is the one J J^T in the package, and
coactivation forms every count product S S^T (K-FAC's too).  Every
builder returns the n x n array itself.  guarded_solve is the one PD
guard and direct solve, with one Cholesky factor reused by the solve: the
output Gram, both K-FAC factors and G_inf go through it.  spectrum is
the symmetry-checked eigenvalue solve that every other module's
eigenvalues go through (min_eig reads its bottom end).
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
SOLVE_PANEL = 64  # rows per panel of guarded_solve's triangular substitutions
REFINE_TOL = math.sqrt(np.finfo(float).eps)  # guarded_solve's error estimate, relative to x
TINY = np.finfo(float).tiny  # smallest positive normal float


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
    """Solve A x = rhs if A - PD_FLOOR I has a Cholesky factor L, the guard
    for lambda_min(A) > PD_FLOOR (safely positive definite); else None.

    L is the one factorization, reused by the solve.  The substitution
    solve x = (L L^T)^-1 rhs is off by about q = PD_FLOOR / (lambda_min -
    PD_FLOOR); z = (L L^T)^-1 (rhs - A x) is that error to within a factor
    1 + q, so once z is below REFINE_TOL |x| the refined x + z is returned,
    its error shrunk by q again.  For lambda_min well above the floor that
    is at once: one product with A.  Otherwise conjugate-gradient steps on
    A, preconditioned by (L L^T)^-1, run first; the preconditioned matrix
    I + PD_FLOOR (L L^T)^-1 has its eigenvalues within q of 1, so a few
    steps do.  Every column of rhs takes its own step lengths.  A is never
    written.
    """
    n = A.shape[0]
    shifted = A.copy()
    shifted.flat[:: n + 1] -= PD_FLOOR
    try:
        L = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    precondition = _cholesky_substitution(L)
    x = precondition(rhs)
    r = rhs - A @ x
    z = precondition(r)
    p = rz = None
    for _ in range(n + 1):  # n steps end CG in exact arithmetic
        if np.vdot(z, z) <= REFINE_TOL**2 * np.vdot(x, x):
            break
        # + TINY: a column already solved exactly has r = z = p = 0 and
        # takes a 0 step; any other denominator is unchanged by it
        rz_last, rz = rz, _column_dots(r, z)
        p = z if p is None else z + rz / (rz_last + TINY) * p
        Ap = A @ p
        alpha = rz / (_column_dots(p, Ap) + TINY)
        x += alpha * p
        r -= alpha * Ap
        z = precondition(r)
    return x + z


def _column_dots(a: np.ndarray, b: np.ndarray):
    """a_j . b_j for each column j of an n x k pair; a scalar for vectors."""
    return np.einsum("i...,i...->...", a, b)


def _cholesky_substitution(L: np.ndarray):
    """b -> (L L^T)^-1 b for lower-triangular L, by blocked forward then back
    substitution over SOLVE_PANEL-row panels (Golub & Van Loan 3.1): a GEMV
    or GEMM update per panel, then the panel's diagonal block, inverted once
    by np.linalg.solve and reused by every application.  A single panel's
    two inverse blocks are one n x n product, applied in one step."""
    n = L.shape[0]
    panels = [(lo, min(lo + SOLVE_PANEL, n)) for lo in range(0, n, SOLVE_PANEL)]
    inverses = [np.linalg.solve(L[lo:hi, lo:hi], np.eye(hi - lo)) for lo, hi in panels]
    if len(panels) == 1:
        inverse = inverses[0].T @ inverses[0]
        return lambda b: inverse @ b

    def apply(b: np.ndarray) -> np.ndarray:
        y = np.array(b, dtype=float)
        for (lo, hi), inv in zip(panels, inverses):
            if lo:
                y[lo:hi] -= L[lo:hi, :lo] @ y[:lo]
            y[lo:hi] = inv @ y[lo:hi]
        for (lo, hi), inv in zip(reversed(panels), reversed(inverses)):
            if hi < n:
                y[lo:hi] -= L[hi:, lo:hi].T @ y[hi:]
            y[lo:hi] = inv.T @ y[lo:hi]
        return y

    return apply


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
