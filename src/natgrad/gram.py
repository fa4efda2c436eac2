"""Gram matrices of the network Jacobian and their infinite-width limit.

The limiting Gram has the closed form

    G_inf[i, j] = x_i.x_j * (pi - arccos(x_i.x_j)) / (2 pi),

the expectation over Gaussian weights of x_i.x_j 1{w.x_i >= 0, w.x_j >= 0}.
At finite width the Gram of the Jacobian is the entrywise (Hadamard)
product of X X^T and S S^T / m, which is how it is computed here, from
the factored Jacobian: finite_gram is the one J J^T in the package, and
coactivation forms every count product S S^T (K-FAC's too).  Every
builder returns the n x n array itself.  guarded_solve is the one PD
guard and direct solve: the guard factors A - PD_FLOOR I left-looking in
SOLVE_PANEL-column panels, most of its flops BLAS products, with no
shifted copy of A; that factor and its panels' inverses solve, with one
refinement step, and a matrix too near the floor for that step is solved
by LU.  The output Gram, both K-FAC factors and G_inf go through it.
spectrum is the symmetry-checked eigenvalue solve that every other
module's eigenvalues go through (min_eig reads its bottom end); the one
eigenvalue found otherwise is the Jacobian drift's top one, by Lanczos
above LANCZOS_MIN_N rows, with eigvalsh at or below it and as the
fallback.  Spectral helpers include the Hadamard-product eigenvalue bounds
relating the factors' spectra to the product's.
"""
from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .network import JacobianView

SYMMETRY_TOL = 1e-9
PD_FLOOR = 1e-12  # lambda_min (+ damping) a matrix needs to count as positive definite
FLOAT32_EXACT_LIMIT = 2**24  # float32 represents every integer of smaller magnitude
SOLVE_PANEL = 64  # columns per panel of guarded_solve's factor and rows per substitution panel
REFINE_TOL = math.sqrt(np.finfo(float).eps)  # guarded_solve's largest accepted |z| / |x|
LANCZOS_MIN_N = 256  # at or below this many rows eigvalsh is as fast as Lanczos
LANCZOS_MAX_ITERS = 64  # Lanczos steps before falling back to eigvalsh
LANCZOS_TOL = 1e-13  # accepted Ritz residual bound, relative to the Ritz value
MC_PASS_BYTES = 2**24  # bytes of one mc_limiting_gram pass's float64 draws-by-rows product


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

    XXt is X X^T; S and S0 are the bool activation patterns of J and
    J0.  J - J0 is the Jacobian factor pair (X, D a / sqrt(m)) with
    D = S - S0 in {-1, 0, 1}, so (J - J0)(J - J0)^T = (X X^T) o (D D^T) / m
    and the spectral norm is the square root of its top eigenvalue, found
    by _top_eigenvalue.  The counts D D^T are exact, so an unchanged
    pattern gives exactly 0.
    """
    D = np.subtract(S, S0, dtype=np.float32)  # exact: entries in {-1, 0, 1}
    return math.sqrt(max(0.0, _top_eigenvalue(pattern_gram(XXt, D))))


def _top_eigenvalue(M: np.ndarray) -> float:
    """lambda_max of a symmetric n x n matrix.

    Above LANCZOS_MIN_N rows, by Lanczos with full reorthogonalization
    (classical Gram-Schmidt, twice) from a fixed random start, so reruns
    give the same bits.  It stops once the Ritz residual bound
    |beta_k s_k| of the top Ritz value theta, which bounds the distance from
    theta to the spectrum, is at most LANCZOS_TOL |theta| (Kuczynski &
    Wozniakowski 1992 analyse this use).  An invariant subspace (beta_k = 0,
    as on a zero matrix, whose 0.0 is then exact) stops it too.  Small
    matrices, and a run that has not stopped after LANCZOS_MAX_ITERS steps,
    go to eigvalsh.
    """
    n = M.shape[0]
    if n > LANCZOS_MIN_N:
        steps = min(n, LANCZOS_MAX_ITERS)
        Q = np.empty((steps, n))  # orthonormal Lanczos vectors, one per row
        T = np.zeros((steps, steps))  # the tridiagonal projection of M
        q = np.random.default_rng(0).standard_normal(n)
        q /= math.sqrt(q @ q)
        for k in range(steps):
            Q[k] = q
            w = M @ q
            basis = Q[: k + 1]
            for _ in range(2):
                h = basis @ w
                w -= basis.T @ h
                T[k, k] += h[k]
            beta = math.sqrt(w @ w)
            theta, s = np.linalg.eigh(T[: k + 1, : k + 1])
            if beta * abs(s[-1, -1]) <= LANCZOS_TOL * abs(theta[-1]):
                return float(theta[-1])
            if k + 1 < steps:
                T[k, k + 1] = T[k + 1, k] = beta
                q = w / beta
    return float(np.linalg.eigvalsh(M)[-1])


def mc_limiting_gram(ds: Dataset, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the limiting Gram, with standard errors.

    Draws w ~ N(0, I) and averages x_i.x_j 1{w.x_i >= 0, w.x_j >= 0}; the
    indicator events are scale invariant, so unit scale loses nothing.
    The draws are made in passes of MC_PASS_BYTES / (8 max(n, d)) at most,
    which bounds each pass's temporaries as n grows; the counts are exact
    integers, so the estimate does not depend on the pass size.  Returns
    the estimate and the entrywise standard-error matrix
    |x_i.x_j| sqrt(p(1-p)/samples) from the estimated co-activation
    frequency p.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    per_pass = max(1, MC_PASS_BYTES // (8 * max(ds.n, ds.d)))
    rng = np.random.default_rng(seed)
    counts = np.zeros((ds.n, ds.n))
    done = 0
    while done < samples:
        take = min(per_pass, samples - done)
        W = rng.standard_normal((take, ds.d))
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

    L is the one factorization, made by _shifted_cholesky one SOLVE_PANEL
    panel at a time, and reused by the solve together with the inverses of
    its diagonal blocks.  The substitution solve x = (L L^T)^-1 rhs is off
    by about q = PD_FLOOR / (lambda_min - PD_FLOOR); z = (L L^T)^-1 (rhs -
    A x) is that error to within a factor 1 + q, so when z is below
    REFINE_TOL |x| the refined x + z is returned, its error shrunk by q
    again: one refinement step, one product with A.  A larger z,
    lambda_min within about PD_FLOOR / REFINE_TOL, means the step has not
    converged, and A is solved by LU instead.  A is never written.
    """
    if (factor := _shifted_cholesky(A)) is None:
        return None
    precondition = _cholesky_substitution(*factor)
    x = precondition(rhs)
    z = precondition(rhs - A @ x)
    if np.vdot(z, z) <= REFINE_TOL**2 * np.vdot(x, x):
        return x + z
    return np.linalg.solve(A, rhs)


def _shifted_cholesky(A: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """(L, inverses) with L L^T = A - PD_FLOOR I, or None when that has no
    Cholesky factor.

    Left-looking and blocked (Golub & Van Loan 4.2.9): for each panel of
    SOLVE_PANEL columns [lo, hi), A[lo:, lo:hi] - L[lo:, :lo] L[lo:hi, :lo]^T
    is formed by one BLAS product into one reused n x SOLVE_PANEL buffer,
    PD_FLOOR comes off its diagonal block alone, np.linalg.cholesky factors
    that block, and the rows below it are the rest of the panel times the
    block's inverse transposed.  The inverses, one per panel and made by
    np.linalg.solve, are returned for _cholesky_substitution.  No shifted
    copy of A is formed; a matrix of at most SOLVE_PANEL rows is one panel
    with no product before or after it, factored exactly as A - PD_FLOOR I
    would be.
    """
    n = A.shape[0]
    L = np.zeros((n, n))
    buf = np.empty(n * min(n, SOLVE_PANEL))
    inverses = []
    for lo in range(0, n, SOLVE_PANEL):
        hi = min(lo + SOLVE_PANEL, n)
        w = hi - lo
        panel = buf[: (n - lo) * w].reshape(n - lo, w)
        if lo:
            np.matmul(L[lo:, :lo], L[lo:hi, :lo].T, out=panel)
            np.subtract(A[lo:, lo:hi], panel, out=panel)
        else:
            np.copyto(panel, A[:, :hi])
        buf[: w * w : w + 1] -= PD_FLOOR  # the diagonal of panel[:w]
        try:
            L[lo:hi, lo:hi] = np.linalg.cholesky(panel[:w])
        except np.linalg.LinAlgError:
            return None
        inverses.append(np.linalg.solve(L[lo:hi, lo:hi], np.eye(w)))
        if hi < n:
            np.matmul(panel[w:], inverses[-1].T, out=L[hi:, lo:hi])
    return L, inverses


def _cholesky_substitution(L: np.ndarray, inverses: list[np.ndarray]):
    """b -> (L L^T)^-1 b for lower-triangular L, by blocked forward then back
    substitution over SOLVE_PANEL-row panels (Golub & Van Loan 3.1): a GEMV
    or GEMM update per panel, then the panel's diagonal block, through the
    inverse that _shifted_cholesky made for it.  A single panel's two
    inverse blocks are one n x n product, applied in one step."""
    n = L.shape[0]
    panels = [(lo, min(lo + SOLVE_PANEL, n)) for lo in range(0, n, SOLVE_PANEL)]
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
