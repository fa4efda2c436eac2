"""Optimizers for the two-layer ReLU model and the training loop around them.

Four update rules on the hidden-layer weights, all acting on the residual
rho = u - y (or a general output-space loss gradient g(u)):

    gd:         w <- w - (eta / n) J^T rho
    ngd_exact:  w <- w - eta J^T (J J^T + damping I)^{-1} rho
    ngd_cg:     same system, solved by conjugate gradients
    kfac:       W <- W - eta S~^T (S~ S~^T + damping I)^{-1} diag(rho) X (X^T X)^{-1}

The natural-gradient solve goes through the n x n output Gram J J^T rather
than the p x p parameter matrix, so its cost is governed by the sample
count, not the parameter count.  K-FAC replaces the Gram inverse with a
Kronecker factorization: a unit-side factor S~ S~^T and an input-side
factor X^T X, each inverted separately.  S~ = S diag(a) / sqrt(m) for the
0/1 pattern S of network.forward is never formed: S~ S~^T is
gram.pre_activation_gram(S), and a / sqrt(m) scales the m x d side of each
product.  Every direct solve is gram.guarded_solve, the one PD guard, whose
one Cholesky factor is reused by the solve: the output Gram's, the unit
factor's and the input factor's.  With damping = 0 the unit factor's
pseudoinverse is the fallback only when that guard fails.

train() drives any of these for a fixed number of steps and records a
ConvergenceTrace: per-step residual norm, loss, weight drift from
initialization, the predicted geometric bound on the squared residual,
and optional diagnostics.  It evaluates the network once per iterate:
the outputs and activation pattern from one network.forward call feed
that iterate's record and diagnostics and the next step.  StepRecord's
fields are the trace columns, and ConvergenceTrace.summary() is the one
run summary that every report reuses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import gram, network
from .data import Dataset, csv_table, jsonable, require_valid
from .errors import DivergenceError, RankDeficiencyError, SingularMatrixError
from .gram import PD_FLOOR
from .network import NetworkParams
from .theory import rate_predictor

METHODS = ("gd", "ngd_exact", "ngd_cg", "kfac")

EARLY_STOP_RESIDUAL = 1e-12
AUTO_DAMPING_SCALE = 1e-8


# ---------------------------------------------------------------------------
# losses


@dataclass(frozen=True)
class LossSpec:
    """Output-space loss, summed over examples as sum_i l(u_i, y_i).

    mu and L are the strong-convexity and gradient-Lipschitz constants of
    the scalar l; grad maps (u, y) to the elementwise derivative in u and
    value to the elementwise l.
    """

    kind: str
    mu: float
    L: float
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (0 < self.mu <= self.L):
            raise ValueError(f"need 0 < mu <= L, got mu={self.mu}, L={self.L}")

    @property
    def kappa(self) -> float:
        return self.L / self.mu


def squared_loss() -> LossSpec:
    """l(u, y) = (u - y)^2 / 2, with mu = L = 1."""
    return LossSpec(
        kind="squared",
        mu=1.0,
        L=1.0,
        grad=lambda u, y: u - y,
        value=lambda u, y: 0.5 * (u - y) ** 2,
    )


def logcosh_loss(mu: float = 0.5) -> LossSpec:
    """l(u, y) = (mu/2)(u - y)^2 + log cosh(u - y).

    Strongly convex with parameter mu and (mu + 1)-Lipschitz gradient,
    since the log cosh term contributes tanh(u - y) with slope in [0, 1].
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")

    def grad(u, y):
        r = u - y
        return mu * r + np.tanh(r)

    def value(u, y):
        r = u - y
        # log cosh r = logaddexp(r, -r) - log 2, overflow-safe
        return 0.5 * mu * r**2 + np.logaddexp(r, -r) - math.log(2.0)

    return LossSpec(kind="strongly_convex_smooth", mu=mu, L=mu + 1.0, grad=grad, value=value)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "ngd_exact"
    eta: float = 0.5
    damping: float | None = None
    cg_iters: int = 100
    cg_tol: float = 1e-10
    max_steps: int = 100
    loss: LossSpec = field(default_factory=squared_loss)
    track_lambda_min: bool = False
    track_jacobian_drift: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if self.damping is not None and not (np.isfinite(self.damping) and self.damping >= 0):
            raise ValueError(f"damping must be None or >= 0, got {self.damping}")
        if self.cg_iters < 1:
            raise ValueError(f"cg_iters must be >= 1, got {self.cg_iters}")
        if self.cg_tol <= 0:
            raise ValueError(f"cg_tol must be positive, got {self.cg_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.method in ("gd", "kfac") and self.loss.kind != "squared":
            raise ValueError(f"method {self.method!r} supports only the squared loss")


# ---------------------------------------------------------------------------
# linear-algebra helpers


def _damped(G: np.ndarray, damping: float | None) -> tuple[np.ndarray, float]:
    """(G + lam I, lam), where lam is damping or, for damping = None, the
    relative default 1e-8 tr(G)/n; G itself when lam is 0."""
    lam = AUTO_DAMPING_SCALE * float(np.trace(G)) / G.shape[0] if damping is None else damping
    return (G + lam * np.eye(G.shape[0]) if lam > 0 else G), lam


def _solve_gram(
    G: np.ndarray, rhs: np.ndarray, damping: float | None, what: str = "output Gram"
) -> np.ndarray:
    """Solve (G + damping I) z = rhs, damping as _damped reads it, by
    gram.guarded_solve.  Raises SingularMatrixError, naming the matrix as
    `what`, when the guard fails; only then is min_eig paid for."""
    damped, lam = _damped(G, damping)
    if (z := gram.guarded_solve(damped, rhs)) is None:
        raise SingularMatrixError(
            f"{what} is numerically singular: lambda_min + damping = "
            f"{gram.min_eig(G) + lam:.3e} <= {PD_FLOOR:.0e}"
        )
    return z


def _norm(v: np.ndarray) -> float:
    """sqrt(v . v), np.linalg.norm(v)'s bits; optim calls numpy.linalg for pinv only."""
    return math.sqrt(float(v.ravel().dot(v.ravel())))


def _residual_norm(u: np.ndarray, ds: Dataset, step: int) -> float:
    """||u - y||, raising DivergenceError at `step` when it is not finite
    (non-finite outputs, or a square sum beyond float range)."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
        r = _norm(u - ds.y)
    if not math.isfinite(r):
        raise DivergenceError(
            f"training diverged at step {step}: residual norm is {r}", step=step
        )
    return r


def cg_solve(
    A: np.ndarray, b: np.ndarray, max_iters: int = 100, tol: float = 1e-10
) -> tuple[np.ndarray, int, bool]:
    """Conjugate gradients for A x = b, A symmetric positive definite.

    Starts from x = 0 and stops when ||r|| <= tol ||b||.  Returns
    (x, iterations, converged); a breakdown returns the current iterate
    with converged = False.  Breakdown is a curvature p^T A p of at most
    PD_FLOOR p^T p: on a singular system roundoff leaves a tiny positive
    curvature along its null space, and a step by it would overflow.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    rs = float(r @ r)
    bnorm = math.sqrt(rs)
    if bnorm == 0.0:
        return x, 0, True
    p = r.copy()
    for it in range(1, max_iters + 1):
        Ap = A @ p
        curv = float(p @ Ap)
        if curv <= PD_FLOOR * float(p @ p):
            return x, it - 1, False
        alpha = rs / curv
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * bnorm:
            return x, it, True
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iters, False


# ---------------------------------------------------------------------------
# single steps (pure: each returns a new NetworkParams)
#
# Each step takes fwd = network.forward(p, ds.X), the outputs and the
# activation pattern at p, when the caller already has them (train()
# carries them from one iterate to the next); fwd=None computes them.

Forward = tuple[np.ndarray, np.ndarray]


def _evaluated(
    p: NetworkParams, ds: Dataset, fwd: Forward | None
) -> tuple[np.ndarray, network.JacobianView]:
    """The outputs u at p and the Jacobian on forward's pattern S."""
    u, S = network.forward(p, ds.X) if fwd is None else fwd
    return u, network.JacobianView(X=ds.X, S=S, a=p.a)


def _updated(p: NetworkParams, eta: float, G: np.ndarray) -> NetworkParams:
    """p with w - eta G.  G is the step's own fresh array, scaled in place,
    so the new weights are the one m x d array allocated here."""
    G *= eta
    return p.with_weights(p.w - G)


def gd_step(
    p: NetworkParams, ds: Dataset, eta: float, fwd: Forward | None = None
) -> NetworkParams:
    """Plain gradient descent on the mean squared loss: w -= (eta/n) J^T rho."""
    u, jv = _evaluated(p, ds, fwd)
    return _updated(p, eta / ds.n, jv.grad_matrix(u - ds.y))


def _ngd_step(
    p: NetworkParams,
    ds: Dataset,
    eta: float,
    loss: LossSpec,
    solve: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, bool]],
    fwd: Forward | None,
) -> tuple[NetworkParams, bool]:
    """w <- w - eta J^T z with z from solve(G, g(u)): the n x n Gram
    G = J J^T against the output-space loss gradient g(u).  solve returns
    (z, converged)."""
    u, jv = _evaluated(p, ds, fwd)
    z, converged = solve(gram.finite_gram(jv), loss.grad(u, ds.y))
    return _updated(p, eta, jv.grad_matrix(z)), converged


def ngd_exact_step(
    p: NetworkParams,
    ds: Dataset,
    eta: float,
    damping: float | None = None,
    loss: LossSpec = squared_loss(),
    fwd: Forward | None = None,
) -> NetworkParams:
    """Natural-gradient step through a direct solve of the n x n Gram.

    Raises SingularMatrixError when the damped Gram is not safely
    positive definite.
    """
    new_p, _ = _ngd_step(
        p, ds, eta, loss, lambda G, g: (_solve_gram(G, g, damping), True), fwd
    )
    return new_p


def ngd_cg_step(
    p: NetworkParams,
    ds: Dataset,
    eta: float,
    damping: float | None = None,
    cg_iters: int = 100,
    cg_tol: float = 1e-10,
    loss: LossSpec = squared_loss(),
    fwd: Forward | None = None,
) -> tuple[NetworkParams, bool]:
    """Natural-gradient step with the Gram system solved by CG.

    Returns (params, converged).  No eigenvalue precheck is done; an
    ill-conditioned system shows up as CG stagnation, which train()
    records rather than raising.
    """

    def solve(G, g):
        z, _, converged = cg_solve(_damped(G, damping)[0], g, cg_iters, cg_tol)
        return z, converged

    return _ngd_step(p, ds, eta, loss, solve, fwd)


def kfac_step(
    p: NetworkParams,
    ds: Dataset,
    eta: float,
    damping: float | None = None,
    fwd: Forward | None = None,
) -> NetworkParams:
    """Kronecker-factored step.

    W <- W - eta S~^T (S~ S~^T + damping I)^{-1} diag(u - y) X (X^T X)^{-1}

    Both factors go through gram.guarded_solve; X^T X failing it (inputs
    of rank < d) raises RankDeficiencyError.  With damping = 0 the unit
    factor S~ S~^T is pseudoinverted only when its guard fails, so a
    rank-deficient activation pattern is handled in the least-squares sense.
    """
    u, jv = _evaluated(p, ds, fwd)  # S~ = S diag(jv.scale)
    A = gram.pre_activation_gram(jv.S)  # S~ S~^T, from exact counts
    scaled = (u - ds.y)[:, None] * ds.X  # diag(rho) X, n x d
    damped, lam = _damped(A, damping)
    if lam > 0.0:
        middle = _solve_gram(damped, scaled, 0.0, "unit factor")  # already damped
    elif (middle := gram.guarded_solve(A, scaled)) is None:  # rank-deficient pattern
        middle = np.linalg.pinv(A, hermitian=True) @ scaled  # least squares
    XtX = ds.X.T @ ds.X
    if (inner := gram.guarded_solve(XtX, middle.T)) is None:  # (X^T X)^-1 middle^T
        raise RankDeficiencyError(
            "input factor X^T X is rank deficient; K-FAC needs rank-d inputs "
            f"(lambda_min = {gram.min_eig(XtX):.3e} <= {PD_FLOOR:.0e})"
        )
    update = inner @ jv.S  # (X^T X)^-1 middle^T S, d x m
    update *= jv.scale  # in place: S~^T middle (X^T X)^-1, transposed
    return _updated(p, eta, update.T)


# ---------------------------------------------------------------------------
# training loop and trace


@dataclass(frozen=True)
class StepRecord:
    """State after step k (1-based)."""

    k: int
    residual_norm: float
    loss: float
    weight_drift: float
    per_unit_max_drift: float
    predicted_bound: float
    lambda_min_G: float | None = None
    jacobian_drift: float | None = None
    cg_stagnated: bool | None = None


TRACE_COLUMNS = tuple(f.name for f in fields(StepRecord))


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-step training record plus the final parameters.

    Rows are the states after steps 1..K; the state before the first step
    is summarized by initial_residual_norm.
    """

    method: str
    eta: float
    initial_residual_norm: float
    records: tuple[StepRecord, ...]
    final_params: NetworkParams

    @property
    def final_residual_norm(self) -> float:
        if self.records:
            return self.records[-1].residual_norm
        return self.initial_residual_norm

    def steps_to_threshold(self, threshold: float) -> int | None:
        """First step index k with ||u(k) - y|| <= threshold, or None."""
        for rec in self.records:
            if rec.residual_norm <= threshold:
                return rec.k
        return None

    def csv_text(self) -> str:
        """The trace table, one row per record in TRACE_COLUMNS order."""
        return csv_table(
            TRACE_COLUMNS,
            ([getattr(rec, name) for name in TRACE_COLUMNS] for rec in self.records),
        )

    def summary(self) -> dict:
        """The run in brief: method, eta, step count, and the initial and
        final residual norms."""
        return {
            "method": self.method,
            "eta": self.eta,
            "steps": len(self.records),
            "initial_residual_norm": self.initial_residual_norm,
            "final_residual_norm": self.final_residual_norm,
        }

    def json_dict(self) -> dict:
        """summary() plus the records, as a JSON-safe document: a NaN
        becomes None (null)."""
        records = [{name: getattr(rec, name) for name in TRACE_COLUMNS} for rec in self.records]
        return jsonable({**self.summary(), "records": records})


def predicted_factor(cfg: OptimizerConfig, ds: Dataset) -> float:
    """Per-step factor of the predicted squared-residual bound for cfg's
    method and loss on ds; NaN for plain gradient descent."""
    if cfg.method == "gd":
        return math.nan
    if cfg.method == "kfac":
        return rate_predictor("kfac", cfg.eta, ds=ds)
    return rate_predictor("general", cfg.eta, mu=cfg.loss.mu, L=cfg.loss.L)


def train(p: NetworkParams, ds: Dataset, cfg: OptimizerConfig) -> ConvergenceTrace:
    """Run cfg.max_steps optimizer steps and record the trajectory.

    The dataset must pass validate() (unit-norm rows, no coincident
    points).  Stops early once the residual norm falls to 1e-12; raises
    DivergenceError if a residual norm (the initial one included) or the
    weights stop being finite.  A step's SingularMatrixError or
    RankDeficiencyError is raised again as its own type with the step in
    err.step and in the message.
    """
    require_valid(ds)

    u, S = network.forward(p, ds.X)  # outputs and pattern at the current iterate
    r0 = _residual_norm(u, ds, 0)
    factor = predicted_factor(cfg, ds)
    if cfg.track_lambda_min or cfg.track_jacobian_drift:
        XXt = ds.X @ ds.X.T
    if cfg.track_jacobian_drift:
        # pattern of the stored initialization, not of the incoming weights
        S0 = network.activation_pattern(p.with_weights(p.w0), ds.X)

    records: list[StepRecord] = []
    current = p
    for k in range(1, cfg.max_steps + 1):
        stagnated: bool | None = None
        fwd = (u, S)
        try:
            if cfg.method == "gd":
                current = gd_step(current, ds, cfg.eta, fwd)
            elif cfg.method == "kfac":
                current = kfac_step(current, ds, cfg.eta, cfg.damping, fwd)
            elif cfg.method == "ngd_exact":
                current = ngd_exact_step(current, ds, cfg.eta, cfg.damping, cfg.loss, fwd)
            else:  # ngd_cg
                current, converged = ngd_cg_step(
                    current, ds, cfg.eta, cfg.damping, cfg.cg_iters, cfg.cg_tol, cfg.loss, fwd
                )
                stagnated = not converged
        except (SingularMatrixError, RankDeficiencyError) as exc:
            raise type(exc)(f"training failed at step {k}: {exc}", step=k) from exc

        fwd = S = None  # an n x m array; drop it before forward forms the next
        u, S = network.forward(current, ds.X)
        residual_norm = _residual_norm(u, ds, k)
        if not np.all(np.isfinite(current.w)):
            raise DivergenceError(f"training diverged at step {k}: non-finite weights", step=k)

        lam_min = None
        jac_drift = None
        if cfg.track_lambda_min:
            lam_min = gram.min_eig(gram.pattern_gram(XXt, S))
        if cfg.track_jacobian_drift:
            jac_drift = gram.jacobian_drift(XXt, S, S0)

        diff = current.w - current.w0
        weight_drift = _norm(diff)
        np.multiply(diff, diff, out=diff)  # in place: squared drift per entry
        unit_drift = math.sqrt(float(np.max(np.add.reduce(diff, axis=1))))
        rec = StepRecord(
            k=k,
            residual_norm=residual_norm,
            loss=float(np.mean(cfg.loss.value(u, ds.y))),
            weight_drift=weight_drift,
            per_unit_max_drift=unit_drift,
            predicted_bound=factor**k * r0**2,
            lambda_min_G=lam_min,
            jacobian_drift=jac_drift,
            cg_stagnated=stagnated,
        )
        records.append(rec)
        if rec.residual_norm <= EARLY_STOP_RESIDUAL:
            break

    return ConvergenceTrace(
        method=cfg.method,
        eta=cfg.eta,
        initial_residual_norm=r0,
        records=tuple(records),
        final_params=current,
    )
