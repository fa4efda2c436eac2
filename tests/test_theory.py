"""Convergence conditions, rate predictions, and sample-size bounds."""
import math
import warnings

import numpy as np
import pytest

import oracles
from natgrad import (
    Dataset,
    NetworkParams,
    SingularMatrixError,
    check_conditions,
    generalization_bound,
    init_network,
    lambda0_floor_check,
    limiting_gram,
    ngd_max_eta,
    overparam_requirement,
    rate_predictor,
    synth_sphere,
)


def test_max_eta_values():
    assert ngd_max_eta(0.0) == 1.0
    assert ngd_max_eta(0.25) == pytest.approx((1 - 0.5) / 1.25**2)
    assert ngd_max_eta(0.5) == 0.0
    assert ngd_max_eta(2.0) == 0.0
    with pytest.raises(ValueError):
        ngd_max_eta(-0.1)
    with pytest.raises(ValueError):
        ngd_max_eta(float("nan"))


def test_max_eta_huge_drift_is_zero():
    # (1 + C)**2 overflows a float past C ~ 1.34e154; the bound is 0 long before
    assert ngd_max_eta(1e155) == 0.0
    assert ngd_max_eta(1e300) == 0.0


def test_max_eta_bits_below_half():
    for C in np.linspace(0.0, 0.5, 2001).tolist():
        assert ngd_max_eta(C) == max(0.0, (1 - 2 * C) / (1 + C) ** 2), C


def test_rate_predictor_squared_loss():
    assert rate_predictor("ngd", 0.5) == 0.5
    assert rate_predictor("ngd", 1.0) == 0.0
    with pytest.warns(UserWarning, match="admissible"):
        assert rate_predictor("ngd", 1.5) == 0.0  # clipped
    with pytest.raises(ValueError, match="eta"):
        rate_predictor("ngd", -1.0)


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0, 1.5])
def test_rate_predictor_ngd_is_general_at_unit_constants(eta):
    # the squared loss is the mu = L = 1 case, bound 2/(mu+L) = 1 and warning included
    with warnings.catch_warnings(record=True) as ngd_warnings:
        warnings.simplefilter("always")
        ngd = rate_predictor("ngd", eta)
    with warnings.catch_warnings(record=True) as general_warnings:
        warnings.simplefilter("always")
        general = rate_predictor("general", eta, mu=1.0, L=1.0)
    assert ngd == general
    assert [str(w.message) for w in ngd_warnings] == [str(w.message) for w in general_warnings]
    assert len(ngd_warnings) == (eta > 1.0)


def test_rate_predictor_general_loss():
    factor = rate_predictor("general", 0.5, mu=0.5, L=1.5)
    assert factor == pytest.approx(1.0 - 2.0 * 0.5 * 0.5 * 1.5 / 2.0)
    with pytest.warns(UserWarning, match="2/\\(mu\\+L\\)"):
        rate_predictor("general", 1.5, mu=0.5, L=1.5)
    with pytest.raises(ValueError, match="mu and L"):
        rate_predictor("general", 0.5)
    with pytest.raises(ValueError, match="0 < mu <= L"):
        rate_predictor("general", 0.5, mu=2.0, L=1.0)


def test_rate_predictor_kfac():
    ds = synth_sphere(16, 8, seed=0)
    lam = np.linalg.eigvalsh(ds.X.T @ ds.X)
    eta = 0.5 * lam[0]  # inside the admissible range, no warning
    assert rate_predictor("kfac", eta, ds=ds) == pytest.approx(1.0 - eta / lam[-1])
    # X^T X = diag(1, 2): lambda_max = 2, and eta = 1.5 sits above lambda_min only
    diag12 = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), np.zeros(3))
    assert rate_predictor("kfac", 0.5, ds=diag12) == 0.75
    with pytest.warns(UserWarning, match="lambda_min"):
        assert rate_predictor("kfac", 1.5, ds=diag12) == 0.25
    with pytest.warns(UserWarning, match="lambda_min"):
        rate_predictor("kfac", 100.0, ds=ds)
    with pytest.raises(ValueError, match="needs ds"):
        rate_predictor("kfac", 0.5)
    with pytest.raises(ValueError, match="positive"):
        rate_predictor("kfac", 0.5, ds=Dataset(np.zeros((3, 2)), np.zeros(3)))


def test_rate_predictor_unknown_method():
    with pytest.raises(ValueError, match="no rate prediction"):
        rate_predictor("gd", 0.5)


def test_conditions_at_initialization():
    ds = synth_sphere(12, 6, seed=0)
    p = init_network(1024, 6, nu=1.0, seed=1)
    rep = check_conditions(p, ds)
    assert rep.condition1_holds
    assert rep.condition2_holds
    assert rep.jacobian_drift == 0.0
    assert rep.C_estimate == 0.0
    assert rep.max_eta_ngd == 1.0
    assert rep.lambda_min_G0 > 0
    assert rep.radius > 0
    # kappa = 1 collapses the widened radius onto the squared-loss one
    assert rep.general_loss_radius == pytest.approx(rep.radius)
    wide = check_conditions(p, ds, kappa=3.0)
    assert wide.general_loss_radius == pytest.approx(2.0 * rep.radius)


def test_condition2_requires_staying_in_ball():
    # move every unit along a direction that flips no activation: the drift
    # constant stays 0 but the iterate leaves the radius, so the ball
    # membership clause must fail the condition on its own
    X = np.array([[1.0, 0.0], [0.8, 0.6]])
    m = 8
    w = np.tile([10.0, 0.0], (m, 1))
    a = np.array([1.0, -1.0] * (m // 2))  # signs cancel: u0 = 0
    p = NetworkParams(w=w, a=a, nu=1.0, w0=w.copy())
    ds = Dataset(X, np.array([1.0, -1.0]))
    rep0 = check_conditions(p, ds)
    assert rep0.condition2_holds

    far = p.with_weights(p.w + np.array([0.0, 100.0]))  # z stays positive
    rep = check_conditions(far, ds)
    assert rep.jacobian_drift == 0.0
    assert rep.C_estimate == 0.0
    assert np.linalg.norm(far.w - p.w) > rep.radius
    assert not rep.condition2_holds


def test_condition2_fails_under_large_drift():
    # orthonormal inputs, all units active; negating the weights kills the
    # whole pattern, so ||J - J0||_2 equals ||J0||_2 = 1 and C = 3
    X = np.eye(2)
    m = 4
    w = np.tile([1.0, 1.0], (m, 1)) / np.sqrt(2.0)
    a = np.array([1.0, -1.0, 1.0, -1.0])
    p = NetworkParams(w=w, a=a, nu=1.0, w0=w.copy())
    ds = Dataset(X, np.array([1.0, -1.0]))
    flipped = p.with_weights(-p.w)
    rep = check_conditions(flipped, ds)
    assert rep.lambda_min_G0 == pytest.approx(1.0)
    assert rep.jacobian_drift == pytest.approx(1.0)
    assert rep.C_estimate == pytest.approx(3.0)
    assert rep.condition1_holds
    assert not rep.condition2_holds
    assert rep.max_eta_ngd == 0.0


def test_jacobian_drift_matches_dense_norm():
    # flip exactly one indicator: the drift must equal 1/sqrt(m) and agree
    # with the spectral norm of the dense Jacobian difference
    X = np.eye(2)
    m = 6
    w = np.tile([1.0, 1.0], (m, 1)) / np.sqrt(2.0)
    a = np.ones(m)
    p = NetworkParams(w=w, a=a, nu=1.0, w0=w.copy())
    w2 = w.copy()
    w2[0] = [-1.0, 1.0]  # unit 0 now inactive on x_0, still active on x_1
    moved = NetworkParams(w=w2, a=a, nu=1.0, w0=w.copy())
    ds = Dataset(X, np.ones(2))
    rep = check_conditions(moved, ds)
    assert rep.jacobian_drift == pytest.approx(1.0 / np.sqrt(m), abs=1e-12)
    J0 = oracles.dense_jacobian_loops(p.w, a, X)
    J1 = oracles.dense_jacobian_loops(moved.w, a, X)
    assert rep.jacobian_drift == pytest.approx(np.linalg.norm(J1 - J0, 2), abs=1e-12)


def test_conditions_singular_gram_sentinel():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])  # coincident inputs
    ds = Dataset(X, np.array([1.0, 1.0]))
    p = init_network(16, 2, nu=1.0, seed=0)
    rep = check_conditions(p, ds)
    assert not rep.condition1_holds
    assert rep.condition2_holds is False
    assert math.isnan(rep.radius)
    assert math.isnan(rep.C_estimate)
    assert math.isnan(rep.max_eta_ngd)
    assert math.isnan(rep.general_loss_radius)
    assert rep.jacobian_drift == 0.0


def test_conditions_input_checks():
    ds = synth_sphere(4, 3, seed=0)
    p = init_network(8, 3, nu=1.0, seed=0)
    with pytest.raises(ValueError, match="kappa"):
        check_conditions(p, ds, kappa=0.5)


def test_floor_check_always_fails_the_claimed_bound():
    # the limiting Gram has 1/2 on the diagonal, so its smallest eigenvalue
    # can never clear n^beta / 2 > 1/2
    assert lambda0_floor_check(d=8, n=16, beta=0.5, trials=3) == 0.0
    assert lambda0_floor_check(d=4, n=4, beta=0.1, trials=3) == 0.0
    with pytest.raises(ValueError, match="beta"):
        lambda0_floor_check(d=4, n=8, beta=1.5)
    with pytest.raises(ValueError, match="trials"):
        lambda0_floor_check(d=4, n=8, beta=0.5, trials=0)


def test_generalization_bound_terms():
    ds = synth_sphere(32, 8, seed=0)
    rep = generalization_bound(limiting_gram(ds), ds.y, delta=0.1, epsilon=0.05)
    quad = math.sqrt(2.0 * float(ds.y @ np.linalg.inv(_limiting(ds)) @ ds.y) / ds.n)
    assert rep.quad_term == pytest.approx(quad, rel=1e-10)
    assert rep.conf_term == pytest.approx(3.0 * math.sqrt(math.log(60.0) / 64.0))
    assert rep.total == rep.quad_term + rep.conf_term + rep.epsilon
    assert rep.delta == 0.1


def _limiting(ds):
    inner = np.clip(ds.X @ ds.X.T, -1.0, 1.0)
    np.fill_diagonal(inner, 1.0)
    return inner * (np.pi - np.arccos(inner)) / (2.0 * np.pi)


def test_generalization_bound_rejects_degenerate_data():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ds = Dataset(X, np.ones(3))
    with pytest.raises(SingularMatrixError, match=r"lambda_min"):
        generalization_bound(limiting_gram(ds), ds.y)
    good = synth_sphere(8, 4, seed=0)
    Ginf = limiting_gram(good)
    with pytest.raises(ValueError, match="delta"):
        generalization_bound(Ginf, good.y, delta=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        generalization_bound(Ginf, good.y, epsilon=-0.1)
    with pytest.raises(ValueError, match="shape"):
        generalization_bound(Ginf, good.y[:4])


def test_overparam_requirement_closed_form():
    assert overparam_requirement(16, 0.25, 1.0, 0.1) == pytest.approx(1.6777216e10)
    base = overparam_requirement(8, 0.5, 1.0, 0.2)
    assert overparam_requirement(8, 0.5, 2.0, 0.2) == pytest.approx(base / 4.0)
    assert overparam_requirement(16, 0.5, 1.0, 0.2) == pytest.approx(base * 16.0)
    with pytest.raises(ValueError, match="n"):
        overparam_requirement(1, 0.5, 1.0, 0.1)
    with pytest.raises(ValueError, match="lambda0_hat"):
        overparam_requirement(8, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="nu"):
        overparam_requirement(8, 0.5, -1.0, 0.1)
    with pytest.raises(ValueError, match="delta"):
        overparam_requirement(8, 0.5, 1.0, 1.0)


def test_overparam_requirement_beyond_float_range():
    # nu**2 underflows to 0 or overflows: the width comes from its logarithm
    assert overparam_requirement(16, 0.25, 1e-300, 0.1) == math.inf
    assert overparam_requirement(16, 0.25, 1e200, 0.1) == 0.0
    # nu**2 = inf against lambda0_hat**4 = 0: 16^4 / (1e400 1e-400 1e-3)
    assert overparam_requirement(16, 1e-100, 1e200, 0.1) == pytest.approx(6.5536e7)
