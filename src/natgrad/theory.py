"""Convergence conditions, rate predictions, and sample-complexity bounds.

The geometric convergence of natural gradient descent on the ReLU model
rests on two conditions:

  1. the Gram matrix G(0) = J(0) J(0)^T at initialization is positive
     definite, with smallest eigenvalue lambda_0;
  2. the Jacobian moves little inside the optimization ball: writing
     C = 3 ||J - J(0)||_2 / sqrt(lambda_0), steps stay contractive as
     long as C < 1/2, with admissible step sizes up to
     (1 - 2C) / (1 + C)^2.

For a mu-strongly convex loss with L-Lipschitz gradient, under both the
squared residual decays at least by the factor 1 - 2 eta mu L / (mu + L)
per step for eta <= 2 / (mu + L), and the weight trajectory stays within
a radius widened by (1 + kappa) / 2, kappa = L/mu.  The squared loss is
the case mu = L = 1: the factor 1 - eta for eta <= 1.

Also here: the width requirement m = n^4 / (nu^2 lambda_0^4 delta^3) for
the conditions to hold with probability 1 - delta, a generalization bound
driven by the quadratic form y^T (G_inf)^{-1} y, and a Monte Carlo check
of a claimed lower bound lambda_0 >= n^beta / 2 on the limiting Gram's
smallest eigenvalue.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import gram, network
from .data import Dataset, synth_sphere
from .errors import SingularMatrixError
from .gram import PD_FLOOR
from .network import NetworkParams


@dataclass(frozen=True)
class ConditionReport:
    """Evaluation of the convergence conditions at a parameter state,
    measured against its initialization w0."""

    lambda_min_G0: float
    radius: float
    jacobian_drift: float
    C_estimate: float
    condition1_holds: bool
    condition2_holds: bool
    max_eta_ngd: float
    general_loss_radius: float
    kappa: float


def ngd_max_eta(C: float) -> float:
    """Largest admissible NGD step size (1 - 2C) / (1 + C)^2, or 0 when
    the drift constant C reaches 1/2."""
    if not (np.isfinite(C) and C >= 0):
        raise ValueError(f"C must be finite and >= 0, got {C}")
    return (1.0 - 2.0 * C) / (1.0 + C) ** 2 if C < 0.5 else 0.0


def check_conditions(
    p: NetworkParams, ds: Dataset, kappa: float = 1.0, trace=None
) -> ConditionReport:
    """Check both convergence conditions at p, measured from its initialization.

    G(0), u(0) and the reference pattern S(0) are evaluated at the stored
    snapshot p.w0, the rule train()'s drift diagnostic uses; condition 2
    also asks that ||p.w - p.w0|| stay within the radius they set.  A
    singular initial Gram does not raise: condition 1 is reported as
    failed, sqrt(lambda_0) is taken as NaN, and so the drift constant,
    both radii and max_eta_ngd come back NaN and condition 2 False.

    trace is the optim.ConvergenceTrace whose final_params is p, or None;
    ds must then be the run's training set.  The packed final pattern it
    holds stands in for the network evaluation at p, and the report has the
    same bits either way.
    """
    if isinstance(kappa, bool) or not kappa >= 1.0:  # also refuses NaN
        raise ValueError(f"kappa = L/mu must be >= 1, got {kappa}")
    packed = None if trace is None else trace.final_pattern
    if trace is not None and trace.final_params is not p:
        raise ValueError("trace.final_params is not p")
    if packed is not None and packed.shape[0] != ds.n:
        raise ValueError(
            f"trace.final_pattern has {packed.shape[0]} rows, not the {ds.n} of ds: "
            "ds must be the run's training set"
        )

    XXt = ds.X @ ds.X.T
    u0, S0 = network.forward(p.with_weights(p.w0), ds.X)
    lam0 = gram.min_eig(gram.pattern_gram(XXt, S0))
    S = network.activation_pattern(p, ds.X) if packed is None else network.unpack_pattern(packed, p.m)
    drift = gram.jacobian_drift(XXt, S, S0)

    condition1 = lam0 > PD_FLOOR
    r0 = float(np.linalg.norm(ds.y - u0))
    sqrt_lam0 = math.sqrt(lam0) if condition1 else math.nan
    C = 3.0 * drift / sqrt_lam0
    radius = 3.0 * r0 / sqrt_lam0
    # condition 2 asks for both a small drift constant and the iterate
    # actually sitting inside the ball where that constant was measured
    in_ball = float(np.linalg.norm(p.w - p.w0)) <= radius
    return ConditionReport(
        lambda_min_G0=lam0,
        radius=radius,
        jacobian_drift=drift,
        C_estimate=C,
        condition1_holds=condition1,
        condition2_holds=C < 0.5 and in_ball,
        max_eta_ngd=ngd_max_eta(C) if condition1 else math.nan,
        general_loss_radius=3.0 * (1.0 + kappa) * r0 / (2.0 * sqrt_lam0),
        kappa=kappa,
    )


def rate_predictor(
    method: str,
    eta: float,
    ds: Dataset | None = None,
    *,
    mu: float | None = None,
    L: float | None = None,
) -> float:
    """Per-step factor for the predicted squared-residual bound, in [0, 1].

    general:  1 - 2 eta mu L / (mu + L)    (admissible eta <= 2 / (mu + L))
    ngd:      general at mu = L = 1, i.e. 1 - eta (the squared loss)
    kfac:     1 - eta / lambda_max(X^T X)  (admissible eta <= lambda_min(X^T X))

    The kfac factor reads X^T X from ds, which it requires; it warns
    about eta only when X has full rank, since a singular X^T X is a rank
    error in kfac_step, not a step-size problem.  Other out-of-range step
    sizes get a warning too, and the factor is clipped to [0, 1]; there
    is no geometric prediction for plain gradient descent.
    """
    if not (np.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    if method == "ngd":
        method, mu, L = "general", 1.0, 1.0
    if method == "general":
        if mu is None or L is None:
            raise ValueError("general rate needs mu and L")
        if not (0 < mu <= L):
            raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
        if eta > 2.0 / (mu + L):
            warnings.warn(
                f"eta = {eta} exceeds the admissible bound 2/(mu+L) = {2.0 / (mu + L):.6g}"
            )
        factor = 1.0 - 2.0 * eta * mu * L / (mu + L)
    elif method == "kfac":
        if ds is None:
            raise ValueError("kfac rate needs ds")
        eigs = gram.spectrum(ds.X.T @ ds.X)
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        if lam_max <= 0:
            raise ValueError(f"lambda_max(X^T X) must be positive, got {lam_max}")
        if PD_FLOOR < lam_min < eta:
            warnings.warn(
                f"eta = {eta} exceeds lambda_min(X^T X) = {lam_min:.6g}; "
                "per-example factors may leave [0, 1)"
            )
        factor = 1.0 - eta / lam_max
    else:
        raise ValueError(f"no rate prediction for method {method!r}")
    return float(np.clip(factor, 0.0, 1.0))


def lambda0_floor_check(
    d: int, n: int, beta: float, trials: int = 20, seed: int = 0
) -> float:
    """Monte Carlo test of the floor lambda_min(G_inf) >= n^beta / 2.

    Draws `trials` datasets of n uniform points on the unit sphere in R^d
    and returns the fraction whose limiting Gram clears the floor.  Note
    the limiting Gram has every diagonal entry equal to 1/2, so
    lambda_min <= 1/2 always, while n^beta / 2 > 1/2 for every n >= 2 and
    beta > 0: the claimed floor is unsatisfiable and the returned
    fraction is 0.0 for all valid inputs.
    """
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    floor = n**beta / 2.0
    master = np.random.default_rng(seed)
    passed = 0
    for _ in range(trials):
        ds = synth_sphere(n, d, seed=int(master.integers(0, 2**31 - 1)))
        lam0 = gram.min_eig(gram.limiting_gram(ds))
        if lam0 >= floor:
            passed += 1
    return passed / trials


@dataclass(frozen=True)
class GenBoundReport:
    quad_term: float
    conf_term: float
    epsilon: float
    total: float
    delta: float


def generalization_bound(
    Ginf: np.ndarray, y: np.ndarray, delta: float = 0.1, epsilon: float = 0.1
) -> GenBoundReport:
    """Population-loss bound sqrt(2 y^T (G_inf)^{-1} y / n)
    + 3 sqrt(log(6/delta) / (2n)) + epsilon.

    Ginf is the limiting Gram of the n inputs (gram.limiting_gram) and y
    their targets.  The quadratic term is the data-dependent complexity of
    interpolating y with the limiting kernel; the second is the usual
    confidence term.
    """
    n = y.shape[0]
    if Ginf.shape != (n, n):
        raise ValueError(f"Ginf has shape {Ginf.shape}, expected ({n}, {n}) for {n} targets")
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    # y over a power of two, an exact scaling, so that y^T (G_inf)^{-1} y
    # stays in float range for targets near 1e200
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(y))))[1] - 1)
    y = y / scale
    if (z := gram.guarded_solve(Ginf, y)) is None:
        detail = f"lambda_min = {gram.min_eig(Ginf):.3e} <= {PD_FLOOR:.0e}"
        raise SingularMatrixError(f"limiting Gram is numerically singular: {detail}")
    quad = scale * math.sqrt(2.0 * float(y @ z) / n)
    conf = 3.0 * math.sqrt(math.log(6.0 / delta) / (2.0 * n))
    return GenBoundReport(
        quad_term=quad,
        conf_term=conf,
        epsilon=epsilon,
        total=quad + conf + epsilon,
        delta=delta,
    )


def overparam_requirement(n: int, lambda0_hat: float, nu: float, delta: float) -> float:
    """Width sufficient for the convergence conditions to hold with
    probability at least 1 - delta: m >= n^4 / (nu^2 lambda0^4 delta^3)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if lambda0_hat <= 0:
        raise ValueError(f"lambda0_hat must be positive, got {lambda0_hat}")
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    try:
        return n**4 / (nu**2 * lambda0_hat**4 * delta**3)
    except (OverflowError, ZeroDivisionError):
        # a power left float range (nu = 1e-300 squares to 0): the width
        # from its logarithm, +inf when no float is that large
        log_m = (
            4 * math.log(n) - 2 * math.log(nu) - 4 * math.log(lambda0_hat) - 3 * math.log(delta)
        )
        return math.exp(log_m) if log_m < math.log(sys.float_info.max) else math.inf
