"""Closed-form training dynamics for the frozen-Jacobian model.

With the Jacobian held constant at J, outputs are affine in the weights,
u(w) = u0 + J (w - w0), and both gradient flow and natural-gradient flow
have closed forms:

    w_gd(t)  = J^T G^{-1} (I - exp(-G t)) (y - u0) + w0
    w_ngd(t) = (1 - e^{-t}) J^T G^{-1} (y - u0) + w0

with G = J J^T.  The two flows traverse different paths but share the
limit w0 + J^T G^{-1} (y - u0), the least-norm weight displacement fitting
the targets.  The discrete natural-gradient recursion contracts the
residual by exactly (1 - eta) per step, reaching y in one step at eta = 1.

J is the network's factored Jacobian (a network.JacobianView), never the
dense n x (m*d) matrix: weights are m x d arrays, J v is apply_weights,
J^T v is grad_matrix and G is gram.finite_gram.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMatrixError
from .gram import PD_FLOOR, finite_gram
from .network import JacobianView
from .optim import LossSpec, squared_loss

DECAY_TARGET = 1e12  # "t = infinity" drives every mode below 1/DECAY_TARGET


@dataclass(frozen=True)
class LinearizedModel:
    """Frozen Jacobian jv (factored, n x m*d), initial weights w0 (m x d),
    outputs u0, targets y.

    Construction fails unless G = J J^T is positive definite; the
    eigendecomposition of G is cached for the trajectory formulas.
    """

    jv: JacobianView
    w0: np.ndarray
    u0: np.ndarray
    y: np.ndarray
    eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        jv = self.jv
        w0 = np.asarray(self.w0, dtype=float)
        u0 = np.asarray(self.u0, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        if w0.shape != (jv.m, jv.d):
            raise ValueError(f"w0 has shape {w0.shape}, expected {(jv.m, jv.d)}")
        if u0.shape != (jv.n,) or y.shape != (jv.n,):
            raise ValueError(f"u0 and y must have length {jv.n}")
        lam, V = np.linalg.eigh(finite_gram(jv))
        if lam[0] <= PD_FLOOR:
            raise SingularMatrixError(
                f"J J^T must be positive definite; lambda_min = {lam[0]:.3e}"
            )
        for name, value in (("w0", w0), ("u0", u0), ("y", y), ("eig", (lam, V))):
            object.__setattr__(self, name, value)


def outputs_at(lm: LinearizedModel, w: np.ndarray) -> np.ndarray:
    """u(w) = u0 + J (w - w0) for m x d weights w."""
    return lm.u0 + lm.jv.apply_weights(np.asarray(w, dtype=float) - lm.w0)


def gd_trajectory(lm: LinearizedModel, t: float) -> np.ndarray:
    """Gradient-flow weights at time t, via eigendecomposition of G."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    lam, V = lm.eig
    rho0 = lm.y - lm.u0
    coeff = (1.0 - np.exp(-lam * t)) / lam
    return lm.jv.grad_matrix(V @ (coeff * (V.T @ rho0))) + lm.w0


def ngd_trajectory(lm: LinearizedModel, t: float) -> np.ndarray:
    """Natural-gradient-flow weights at time t."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    lam, V = lm.eig
    rho0 = lm.y - lm.u0
    return (1.0 - np.exp(-t)) * lm.jv.grad_matrix(V @ ((V.T @ rho0) / lam)) + lm.w0


def ngd_discrete(
    lm: LinearizedModel,
    eta: float,
    k: int,
    loss: LossSpec = squared_loss(),
) -> tuple[np.ndarray, np.ndarray]:
    """k steps of the discrete natural-gradient recursion.

    Each step solves G z = g(u) and moves w by -eta J^T z, where g is the
    output-space loss gradient (u - y for the default squared loss).  For
    squared loss the residual obeys y - u(k+1) = (1 - eta)(y - u(k))
    exactly, so eta = 1 converges in a single step.  Returns (weights,
    outputs) after k steps.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    lam, V = lm.eig
    w = lm.w0.copy()
    u = lm.u0.copy()
    for _ in range(k):
        z = V @ ((V.T @ loss.grad(u, lm.y)) / lam)
        w = w - eta * lm.jv.grad_matrix(z)
        u = outputs_at(lm, w)
    return w, u


def limit_weights(lm: LinearizedModel) -> np.ndarray:
    """Common t -> infinity point of both flows: w0 + J^T G^{-1} (y - u0),
    the least-norm solution of J (w - w0) = y - u0."""
    lam, V = lm.eig
    rho0 = lm.y - lm.u0
    return lm.jv.grad_matrix(V @ ((V.T @ rho0) / lam)) + lm.w0


def t_infinity(lm: LinearizedModel) -> float:
    """Horizon at which every exponential mode of both flows has decayed
    below 1e-12: ln(1e12) / min(lambda_min(G), 1)."""
    lam_min = float(lm.eig[0][0])
    return float(np.log(DECAY_TARGET) / min(lam_min, 1.0))
