"""Two-layer ReLU network with a trained first layer and frozen signs.

    f(x) = (1/sqrt(m)) * sum_r a_r * max(w_r . x, 0)

Only w is ever updated; the output signs a and the initialization snapshot
w0 are frozen at construction, and init's scale nu enters the draw of w
only.  The Jacobian of the output vector with respect to the flattened
weights factors as a row-wise Khatri-Rao product of the activation pattern
S (n x m, 0/1) and the input matrix, with unit r scaled by a_r / sqrt(m).
Every consumer works with the factors (X, S, a); the dense n x (m*d)
matrix is formed only by the test oracles.

forward(p, X) is the one evaluation of an iterate and the one producer of
S: it forms the pre-activations X w^T once, BLOCK_BYTES of them at a time,
applies the tie rule (w_r . x_i = 0 counts as active), and returns both
the outputs u and the pattern S as an n x m bool array, so a training step
and its diagnostics read the same S and no n x m float64 array is formed.
activation_pattern(p, X) is forward's S alone.  JacobianView's products
(apply_weights and pattern_product) take the bool S one unit block at a
time.  pack_pattern keeps a pattern at one bit per entry, and
unpack_pattern gives it back as bool.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

BLOCK_BYTES = 2**20  # bytes of one unit block of float64 n x w work in forward and products


@dataclass(frozen=True)
class NetworkParams:
    """First-layer weights w (m x d) and frozen signs a.

    w0 is the frozen snapshot of w at initialization; seed records how the
    draw was made (-1 when constructed by hand).  Treat instances as
    immutable: optimizer steps return new instances sharing a and w0.
    """

    w: np.ndarray
    a: np.ndarray
    w0: np.ndarray = field(repr=False)
    seed: int = -1

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        a = np.asarray(self.a, dtype=float).ravel()
        w0 = np.asarray(self.w0, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1:
            raise ValueError(f"w must be m x d with m >= 1, got shape {w.shape}")
        if a.shape != (w.shape[0],):
            raise ValueError(f"a has length {a.size}, expected {w.shape[0]}")
        if not np.all(np.abs(a) == 1.0):
            raise ValueError("a entries must be +-1")
        if w0.shape != w.shape:
            raise ValueError(f"w0 shape {w0.shape} does not match w shape {w.shape}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w0", w0)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def with_weights(self, w_new: np.ndarray) -> "NetworkParams":
        """New params with updated w; a, w0, seed unchanged."""
        return replace(self, w=np.asarray(w_new, dtype=float))


@dataclass(frozen=True)
class JacobianView:
    """The output Jacobian held as its factors (X, S, a).

    Block layout is unit-major: row i is m consecutive blocks of length d,
    block r being scale[r] S[i, r] x_i.  Products apply scale = a / sqrt(m)
    on their m-sized side, so no signed n x m pattern is formed.  The
    products J vec(V) (apply_weights), J^T rho (grad_matrix) and
    J J^T (gram.finite_gram) are all that consumers need.  S is forward's
    bool pattern.
    """

    X: np.ndarray
    S: np.ndarray
    a: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.S.shape[1]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def scale(self) -> np.ndarray:
        """a / sqrt(m), the per-unit factor of the blocks."""
        return self.a / np.sqrt(self.m)

    def apply_weights(self, V: np.ndarray) -> np.ndarray:
        """J @ vec(V) for an m x d weight perturbation V, as a length-n vector:
        row i of S (V scaled by unit) dotted with x_i.  The n x d product is
        summed over unit blocks of S in unit order, a BLAS product per
        block, so no n x m float64 copy is formed."""
        Vs = V * self.scale[:, None]
        P = None
        for lo, F in self._float_blocks():
            part = F @ Vs[lo : lo + F.shape[1]]
            P = part if P is None else np.add(P, part, out=P)
        return np.einsum("ic,ic->i", self.X, P)

    def grad_matrix(self, rho: np.ndarray) -> np.ndarray:
        """J.T @ rho reshaped to m x d: S^T diag(rho) X, rows times scale.
        A fresh array (the transpose of a d x m product): callers may
        scale it in place."""
        G = self.pattern_product((rho[:, None] * self.X).T)  # d x m
        return np.multiply(G, self.scale, out=G).T  # in place: no second d x m array

    def pattern_product(self, M: np.ndarray) -> np.ndarray:
        """M @ S for a k x n matrix M, as a fresh k x m float64 array, one
        unit block at a time.  Each output column is one unit's, so the
        blocks split no sum."""
        out = np.empty((M.shape[0], self.m))
        for lo, F in self._float_blocks():
            np.matmul(M, F, out=out[:, lo : lo + F.shape[1]])
        return out

    def _float_blocks(self):
        """(lo, F) for each unit block of S from unit lo on: F is the block
        as float64 (exact: 0/1), in one reused buffer of at most BLOCK_BYTES,
        so no n x m float64 copy is formed.  F is overwritten by the next
        block."""
        n, m = self.S.shape
        width = _block_width(n, m)
        buf = np.empty(n * width)
        for lo in range(0, m, width):
            block = self.S[:, lo : lo + width]
            F = buf[: block.size].reshape(block.shape)
            np.copyto(F, block)
            yield lo, F


def init(m: int, d: int, nu: float, seed: int) -> NetworkParams:
    """Draw w entries i.i.d. N(0, nu^2) and signs a uniform on {-1, +1}.

    Deterministic given the seed; w0 is a copy of the draw.
    """
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    rng = np.random.default_rng(seed)
    w = nu * rng.standard_normal((m, d))
    a = rng.choice([-1.0, 1.0], size=m)
    return NetworkParams(w=w, a=a, w0=w.copy(), seed=seed)


def forward(p: NetworkParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, S): the outputs u_i = (1/sqrt(m)) sum_r a_r max(w_r . x_i, 0) and
    the n x m bool activation pattern of the same pre-activations.  X w^T
    is formed once, one block of units at a time in one reused n x w
    float64 buffer of at most BLOCK_BYTES (one block when that covers m);
    the blocks' partial outputs are summed in unit order."""
    X = _check_inputs(p, X)
    n, m = X.shape[0], p.m
    width = _block_width(n, m)
    buf = np.empty(n * width)
    S = np.empty((n, m), dtype=bool)
    u = None
    for lo in range(0, m, width):
        W = p.w[lo : lo + width]
        Z = np.matmul(X, W.T, out=buf[: n * len(W)].reshape(n, len(W)))
        _active(Z, out=S[:, lo : lo + width])  # taken before max(Z, 0) overwrites the signs
        part = np.maximum(Z, 0.0, out=Z) @ p.a[lo : lo + width]  # in place
        u = part if u is None else np.add(u, part, out=u)
    return u / np.sqrt(m), S


def activation_pattern(p: NetworkParams, X: np.ndarray) -> np.ndarray:
    """S[i, r] = (w_r . x_i >= 0) as an n x m bool array, ties active:
    forward's pattern without its outputs."""
    return forward(p, X)[1]


def pack_pattern(S: np.ndarray) -> np.ndarray:
    """The n x m bool pattern S at one bit per entry: np.packbits along the
    units, n x ceil(m / 8) uint8."""
    return np.packbits(S, axis=1)


def unpack_pattern(packed: np.ndarray, m: int) -> np.ndarray:
    """The pattern that pack_pattern packed, as the n x m bool array it
    was."""
    return np.unpackbits(packed, axis=1, count=m).view(bool)


def jacobian(p: NetworkParams, X: np.ndarray) -> JacobianView:
    """Jacobian of the outputs of forward(p, X) with respect to vec(w), as
    factors.  A caller that already has forward's pattern S builds
    JacobianView(X, S, p.a) directly."""
    X = _check_inputs(p, X)
    return JacobianView(X=X, S=activation_pattern(p, X), a=p.a)


def _block_width(n: int, m: int) -> int:
    """Units per block of n x w float64 work: as many as BLOCK_BYTES holds,
    at least 1 and at most m."""
    return max(1, min(m, BLOCK_BYTES // (8 * n)))


def _active(Z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Z >= 0 written into the bool array out: the activation rule for
    network weights (ties active).  The one place it is written."""
    return np.greater_equal(Z, 0.0, out=out)


def _check_inputs(p: NetworkParams, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != p.d:
        raise ValueError(f"inputs have dimension {X.shape[1]}, network expects {p.d}")
    return X
