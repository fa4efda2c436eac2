"""Independent reference implementations used as ground truth in tests.

Everything here favors obviousness over speed: explicit Python loops,
dense matrices, numpy's pinv.  Nothing imports the library's optimizer
or Jacobian code, so agreement between the two is meaningful.
"""
import numpy as np


def relu_forward_loops(w, a, X):
    """(1/sqrt(m)) sum_r a_r max(w_r . x_i, 0), one example at a time."""
    n = X.shape[0]
    m = w.shape[0]
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for r in range(m):
            z = float(w[r] @ X[i])
            if z > 0.0:
                acc += a[r] * z
        out[i] = acc / np.sqrt(m)
    return out


def dense_jacobian_loops(w, a, X):
    """n x (m*d) Jacobian of the forward map, unit-major blocks, with the
    tie w_r . x_i = 0 counted as active."""
    n, d = X.shape
    m = w.shape[0]
    J = np.zeros((n, m * d))
    for i in range(n):
        for r in range(m):
            if float(w[r] @ X[i]) >= 0.0:
                J[i, r * d : (r + 1) * d] = a[r] * X[i] / np.sqrt(m)
    return J


def fd_jacobian(forward_fn, w, eps=1e-6):
    """Central finite differences of forward_fn(w) in every weight entry.

    forward_fn maps an m x d weight matrix to the length-n output vector.
    """
    m, d = w.shape
    n = forward_fn(w).shape[0]
    J = np.zeros((n, m * d))
    for r in range(m):
        for c in range(d):
            wp = w.copy()
            wp[r, c] += eps
            wm = w.copy()
            wm[r, c] -= eps
            J[:, r * d + c] = (forward_fn(wp) - forward_fn(wm)) / (2.0 * eps)
    return J


def squared_grad(u, y):
    """Output-space gradient of sum_i (u_i - y_i)^2 / 2."""
    return u - y


def logcosh_grad(mu):
    """Output-space gradient of sum_i (mu/2)(u_i - y_i)^2 + log cosh(u_i - y_i)."""
    return lambda u, y: mu * (u - y) + np.tanh(u - y)


def gd_step_dense(w, a, X, y, eta):
    """One gradient-descent step on the mean squared loss through the dense
    Jacobian: w - (eta / n) J^T (u - y)."""
    J = dense_jacobian_loops(w, a, X)
    u = relu_forward_loops(w, a, X)
    return w - (eta / X.shape[0]) * (J.T @ (u - y)).reshape(w.shape)


def ngd_step_dense(w, a, X, y, eta, grad=squared_grad, damping=0.0):
    """One natural-gradient step through the dense J J^T, against the
    output-space loss gradient grad(u, y): the pseudo-inverse of J J^T when
    damping = 0, else a solve of J J^T + damping I."""
    m, d = w.shape
    J = dense_jacobian_loops(w, a, X)
    u = relu_forward_loops(w, a, X)
    G = J @ J.T
    if damping == 0.0:
        z = np.linalg.pinv(G) @ grad(u, y)
    else:
        z = np.linalg.solve(G + damping * np.eye(G.shape[0]), grad(u, y))
    return w - eta * (J.T @ z).reshape(m, d)


def pd_guard_eig(G, damping):
    """True when G + damping I counts as singular for a solve:
    lambda_min(G) + damping <= 1e-12, by a symmetric eigensolver."""
    return float(np.linalg.eigvalsh(G)[0]) + damping <= 1e-12


def eig_solve(A, b):
    """A^-1 b for a symmetric nonsingular A, through its eigendecomposition
    A = V diag(lam) V^T: V (V^T b / lam), for a vector or n x k b."""
    lam, V = np.linalg.eigh(A)
    c = V.T @ b
    return V @ (c / lam.reshape((-1,) + (1,) * (c.ndim - 1)))


def kfac_step_kron(w, a, X, y, eta):
    """One Kronecker-factored step through the explicit kron matrix.

    The preconditioner is inv(X^T X) kron pinv(S~^T S~) applied to the
    column-stacked m x d gradient matrix J^T (u - y).
    """
    m, d = w.shape
    n = X.shape[0]
    St = (X @ w.T >= 0.0).astype(float) * (a / np.sqrt(m))  # n x m
    u = relu_forward_loops(w, a, X)
    rho = u - y
    Ghat = np.zeros((m, d))
    for i in range(n):
        Ghat += rho[i] * np.outer(St[i], X[i])
    K = np.kron(np.linalg.inv(X.T @ X), np.linalg.pinv(St.T @ St))
    delta = K @ Ghat.flatten(order="F")
    return w - eta * delta.reshape((m, d), order="F")


def kfac_step_pinv(w, a, X, y, eta):
    """One Kronecker-factored step in factored form, vectorized for shapes
    where kfac_step_kron's kron matrix is too large:

        W - eta S~^T pinv(S~ S~^T) diag(u - y) X inv(X^T X)

    with the unit factor always pseudoinverted.
    """
    m = w.shape[0]
    Z = X @ w.T
    St = (Z >= 0.0) * (a / np.sqrt(m))  # n x m
    rho = np.maximum(Z, 0.0) @ a / np.sqrt(m) - y
    middle = np.linalg.pinv(St @ St.T, hermitian=True) @ (rho[:, None] * X)
    return w - eta * (St.T @ middle) @ np.linalg.inv(X.T @ X)


def min_norm_lsq(J, w0, u0, y):
    """Least-norm solution of J (w - w0) = y - u0 by Moore-Penrose."""
    return w0 + np.linalg.pinv(J) @ (y - u0)
