"""Closed-form flows of the frozen-Jacobian model against brute force.

The model runs on a small network's factored Jacobian; the loop oracle's
dense J (n x m*d, unit-major like vec of the m x d weights) is the
reference.
"""
from dataclasses import replace

import numpy as np
import pytest

import oracles
from natgrad import (
    LinearizedModel,
    SingularMatrixError,
    flow_norms,
    forward,
    gd_trajectory,
    init_network,
    JacobianView,
    jacobian,
    limit_weights,
    logcosh_loss,
    ngd_discrete,
    ngd_trajectory,
    outputs_at,
    synth_sphere,
    t_infinity,
)


@pytest.fixture
def net():
    return init_network(4, 3, nu=1.0, seed=0), synth_sphere(5, 3, seed=0).X


@pytest.fixture
def J(net):
    p, X = net
    return oracles.dense_jacobian_loops(p.w, p.a, X)


@pytest.fixture
def lm(net):
    p, X = net
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((p.m, p.d))
    u0 = rng.standard_normal(len(X))
    y = rng.standard_normal(len(X))
    return LinearizedModel(jv=jacobian(p, X), w0=w0, u0=u0, y=y)


def test_construction_validates_shapes(net):
    p, X = net
    jv = jacobian(p, X[:3])
    with pytest.raises(ValueError, match="w0"):
        LinearizedModel(jv=jv, w0=np.ones(p.m * p.d), u0=np.ones(3), y=np.ones(3))
    with pytest.raises(ValueError, match="length 3"):
        LinearizedModel(jv=jv, w0=p.w, u0=np.ones(4), y=np.ones(3))


def test_construction_rejects_singular_gram(net):
    p, X = net
    jv = jacobian(p, np.tile(X[0], (3, 1)))  # identical rows
    with pytest.raises(SingularMatrixError, match="lambda_min"):
        LinearizedModel(jv=jv, w0=p.w, u0=np.zeros(3), y=np.ones(3))


def test_outputs_affine(lm, J):
    assert np.allclose(outputs_at(lm, lm.w0), lm.u0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(lm.w0.shape)
    assert np.allclose(outputs_at(lm, lm.w0 + v), lm.u0 + J @ v.ravel())


def test_trajectories_start_at_w0(lm):
    assert np.allclose(gd_trajectory(lm, 0.0), lm.w0)
    assert np.allclose(ngd_trajectory(lm, 0.0), lm.w0)
    with pytest.raises(ValueError, match="nonnegative"):
        gd_trajectory(lm, -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        ngd_trajectory(lm, -1.0)


def test_gd_flow_matches_euler_integration(lm, J):
    # independent check: integrate w' = J^T (y - u(w)) directly
    t_end = 0.5
    steps = 20000
    dt = t_end / steps
    w = lm.w0.ravel()
    for _ in range(steps):
        w = w + dt * (J.T @ (lm.y - lm.u0 - J @ (w - lm.w0.ravel())))
    assert np.allclose(gd_trajectory(lm, t_end).ravel(), w, atol=1e-4)


def test_ngd_flow_residual_decays_exponentially(lm):
    rho0 = lm.y - lm.u0
    for t in (0.3, 1.0, 2.5):
        u = outputs_at(lm, ngd_trajectory(lm, t))
        assert np.allclose(lm.y - u, np.exp(-t) * rho0, atol=1e-12)


def test_flows_take_different_paths_to_the_same_limit(lm):
    t = 1.0
    assert not np.allclose(gd_trajectory(lm, t), ngd_trajectory(lm, t), atol=1e-3)
    horizon = t_infinity(lm)
    wstar = limit_weights(lm)
    assert np.allclose(gd_trajectory(lm, horizon), wstar, atol=1e-9)
    assert np.allclose(ngd_trajectory(lm, horizon), wstar, atol=1e-9)


def test_limit_is_min_norm_solution(lm, J):
    wstar = limit_weights(lm)
    expected = oracles.min_norm_lsq(J, lm.w0.ravel(), lm.u0, lm.y)
    assert np.allclose(wstar.ravel(), expected, atol=1e-10)
    assert np.allclose(outputs_at(lm, wstar), lm.y, atol=1e-10)


def test_discrete_recursion_contracts_exactly(lm):
    rho0 = lm.y - lm.u0
    for eta in (0.25, 0.5):
        for k in (1, 3, 6):
            _, u = ngd_discrete(lm, eta=eta, k=k)
            assert np.allclose(lm.y - u, (1.0 - eta) ** k * rho0, atol=1e-10)


def test_discrete_one_step_interpolation(lm):
    w, u = ngd_discrete(lm, eta=1.0, k=1)
    assert np.allclose(u, lm.y, atol=1e-10)
    assert np.allclose(w, limit_weights(lm), atol=1e-10)


def test_discrete_zero_steps(lm):
    w, u = ngd_discrete(lm, eta=0.5, k=0)
    assert np.array_equal(w, lm.w0)
    assert np.array_equal(u, lm.u0)
    with pytest.raises(ValueError, match="k >= 0"):
        ngd_discrete(lm, eta=0.5, k=-1)


def test_discrete_general_loss_matches_manual_recursion(lm, J):
    loss = logcosh_loss()
    k = 4
    eta = 0.6
    G = J @ J.T
    w = lm.w0.ravel()
    u = lm.u0.copy()
    for _ in range(k):
        z = np.linalg.solve(G, loss.grad(u, lm.y))
        w = w - eta * (J.T @ z)
        u = lm.u0 + J @ (w - lm.w0.ravel())
    w_lib, u_lib = ngd_discrete(lm, eta=eta, k=k, loss=loss)
    assert np.allclose(w_lib.ravel(), w, atol=1e-10)
    assert np.allclose(u_lib, u, atol=1e-10)
    # residual still shrinks under the robust loss
    assert np.linalg.norm(lm.y - u_lib) < np.linalg.norm(lm.y - lm.u0)


def test_t_infinity_kills_every_mode(lm, J):
    lam_min = float(np.linalg.eigvalsh(J @ J.T)[0])
    horizon = t_infinity(lm)
    assert np.exp(-lam_min * horizon) <= 1e-12 * (1 + 1e-9)
    assert np.exp(-horizon) <= 1e-12 * (1 + 1e-9)


def test_flows_at_infinite_time_are_the_limit(lm):
    limit = limit_weights(lm)
    np.testing.assert_allclose(gd_trajectory(lm, np.inf), limit, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(ngd_trajectory(lm, np.inf), limit)


def test_t_infinity_scales_with_slow_modes():
    p = init_network(6, 3, nu=1.0, seed=2)
    jv = jacobian(p, synth_sphere(4, 3, seed=2).X)
    base = dict(w0=np.zeros((6, 3)), u0=np.zeros(4), y=np.ones(4))
    fast = LinearizedModel(jv=replace(jv, X=10.0 * jv.X), **base)  # J scaled by 10
    slow = LinearizedModel(jv=replace(jv, X=0.1 * jv.X), **base)
    assert t_infinity(slow) > t_infinity(fast)
    assert t_infinity(fast) == pytest.approx(np.log(1e12))  # lambda_min > 1 capped


def test_flow_norms_match_the_weight_space_route():
    # the eigenbasis formulas against m x d weights: residuals through
    # outputs_at of each flow's weights, gap as the norm of their difference
    ds = synth_sphere(16, 8, seed=3)
    p = init_network(4096, 8, nu=1.0, seed=4)
    u0, S0 = forward(p, ds.X)
    lm = LinearizedModel(jv=JacobianView(ds.X, S0, p.a), w0=p.w, u0=u0, y=ds.y)
    tol = 1e-12 * np.linalg.norm(ds.y - u0)
    for t in (0.0, 0.1, 1.0, t_infinity(lm)):
        w_gd, w_ngd = gd_trajectory(lm, t), ngd_trajectory(lm, t)
        expected = (
            np.linalg.norm(lm.y - outputs_at(lm, w_gd)),
            np.linalg.norm(lm.y - outputs_at(lm, w_ngd)),
            np.linalg.norm(w_gd - w_ngd),
        )
        assert np.allclose(flow_norms(lm, t), expected, rtol=0.0, atol=tol), t
    assert flow_norms(lm, 0.0)[2] == 0.0
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            flow_norms(lm, bad)
