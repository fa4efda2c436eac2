"""Property tests: the forward pass, the factored Jacobian, the finite Gram
and every step (gd, ngd_exact, ngd_cg, kfac) against the dense loop
oracles, over shapes, seeds, forced ReLU ties, losses and damping.

A zeroed row r of w gives w_r . x_i = 0 for every input, a tie that the
network counts as active, so those units exercise the tie rule of
network.forward and network.activation_pattern against the oracle's own.
derandomize=True makes every run draw the same examples.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from natgrad import (
    NetworkParams,
    SingularMatrixError,
    activation_pattern,
    finite_gram,
    forward,
    gd_step,
    jacobian,
    kfac_step,
    logcosh_loss,
    ngd_cg_step,
    ngd_exact_step,
    squared_loss,
    synth_sphere,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
ETAS = st.sampled_from([0.1, 0.4, 1.0])
DAMPINGS = st.sampled_from([0.0, None, 1e-3])
LOSSES = {
    "squared": (squared_loss(), oracles.squared_grad),
    "logcosh": (logcosh_loss(mu=0.5), oracles.logcosh_grad(0.5)),
}


@st.composite
def instances(draw, max_extra_rows=6, wide=False):
    """(params, dataset, rng): d in [2, 4], n in [d, d + max_extra_rows],
    m in [1, 12] (from ceil(n / d) when wide, so that m d >= n), some rows
    of w zeroed."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d, d + max_extra_rows))
    m = draw(st.integers(-(-n // d) if wide else 1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    tied = draw(st.lists(st.integers(0, m - 1), max_size=m))
    rng = np.random.default_rng(seed)
    ds = synth_sphere(n, d, seed=seed)
    w = rng.standard_normal((m, d))
    w[tied] = 0.0
    a = rng.choice([-1.0, 1.0], size=m)
    return NetworkParams(w=w, a=a, w0=w.copy()), ds, rng


def rel_step_error(w, expected, w_before):
    """||w - expected|| relative to the size of the expected step."""
    scale = max(float(np.linalg.norm(expected - w_before)), 1e-12)
    return float(np.linalg.norm(w - expected)) / scale


def damped_gram(p, ds, damping):
    """(J J^T from the dense oracle, the damping a step resolves damping
    to, the condition number of J J^T + that damping)."""
    J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
    G = J @ J.T
    lam = 1e-8 * np.trace(G) / ds.n if damping is None else damping
    eig = np.linalg.eigvalsh(G)
    return G, lam, (eig[-1] + lam) / max(eig[0] + lam, 1e-300)


@PROPERTY
@given(instances())
def test_forward_matches_loop_oracle_and_pattern(instance):
    # one X w^T gives both: u as the loop oracle computes it, and S as bool,
    # equal in value to the float64 array activation_pattern forms on its own
    p, ds, _ = instance
    u, S = forward(p, ds.X)
    assert np.allclose(u, oracles.relu_forward_loops(p.w, p.a, ds.X), atol=1e-14)
    assert S.dtype == np.bool_ and S.shape == (ds.n, p.m)
    assert np.array_equal(S, activation_pattern(p, ds.X))
    J = oracles.dense_jacobian_loops(p.w, p.a, ds.X).reshape(ds.n, p.m, p.d)
    assert np.array_equal(S, np.any(J != 0.0, axis=2))  # the oracle's ties count too


@PROPERTY
@given(instances())
def test_jacobian_products_match_dense_oracle(instance):
    p, ds, rng = instance
    J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
    jv = jacobian(p, ds.X)
    rho = rng.standard_normal(ds.n)
    V = rng.standard_normal((p.m, p.d))
    np.testing.assert_allclose(jv.grad_matrix(rho).ravel(), J.T @ rho, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(jv.apply_weights(V), J @ V.ravel(), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(finite_gram(jv), J @ J.T, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(instances(), ETAS)
def test_gd_step_matches_dense_oracle(instance, eta):
    p, ds, _ = instance
    expected = oracles.gd_step_dense(p.w, p.a, ds.X, ds.y, eta=eta)
    assert rel_step_error(gd_step(p, ds, eta=eta).w, expected, p.w) <= 1e-12


@PROPERTY
@given(instances(wide=True), ETAS, st.sampled_from(sorted(LOSSES)), DAMPINGS)
def test_ngd_exact_step_matches_dense_oracle(instance, eta, loss, damping):
    # a backward-stable solve is accurate to about eps times the condition
    # number; where the eigenvalue oracle calls the damped Gram singular
    # the step must refuse it
    p, ds, _ = instance
    spec, grad = LOSSES[loss]
    G, lam, cond = damped_gram(p, ds, damping)
    if oracles.pd_guard_eig(G, lam):
        with pytest.raises(SingularMatrixError):
            ngd_exact_step(p, ds, eta, damping, loss=spec)
        return
    stepped = ngd_exact_step(p, ds, eta, damping, loss=spec)
    expected = oracles.ngd_step_dense(p.w, p.a, ds.X, ds.y, eta, grad=grad, damping=lam)
    assert rel_step_error(stepped.w, expected, p.w) <= 1e-14 * cond


@PROPERTY
@given(instances(wide=True), ETAS, st.sampled_from(sorted(LOSSES)), DAMPINGS)
def test_ngd_cg_step_matches_dense_oracle(instance, eta, loss, damping):
    # CG stopped at relative residual tol is accurate to about tol times
    # the condition number; a singular Gram has no solution to compare
    p, ds, _ = instance
    spec, grad = LOSSES[loss]
    G, lam, cond = damped_gram(p, ds, damping)
    if oracles.pd_guard_eig(G, lam):
        return
    stepped, converged = ngd_cg_step(p, ds, eta, damping, cg_iters=200, cg_tol=1e-12, loss=spec)
    assert converged
    expected = oracles.ngd_step_dense(p.w, p.a, ds.X, ds.y, eta, grad=grad, damping=lam)
    assert rel_step_error(stepped.w, expected, p.w) <= 1e-12 * cond


@PROPERTY
@given(instances(max_extra_rows=3), ETAS)
def test_kfac_step_matches_kron_oracle(instance, eta):
    p, ds, _ = instance
    stepped = kfac_step(p, ds, eta=eta, damping=0.0)
    expected = oracles.kfac_step_kron(p.w, p.a, ds.X, ds.y, eta=eta)
    assert rel_step_error(stepped.w, expected, p.w) <= 1e-10
