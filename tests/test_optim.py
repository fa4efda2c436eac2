"""Optimizer steps against dense oracles, and the training-loop contract."""
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
import natgrad as ng
from natgrad import (
    ConvergenceTrace,
    DivergenceError,
    NetworkParams,
    OptimizerConfig,
    RankDeficiencyError,
    SingularMatrixError,
    cg_solve,
    forward,
    gd_step,
    init_network,
    jacobian,
    kfac_step,
    logcosh_loss,
    ngd_cg_step,
    ngd_exact_step,
    squared_loss,
    synth_sphere,
    train,
)

TRACE_HEADER = (
    "k,residual_norm,loss,weight_drift,per_unit_max_drift,"
    "predicted_bound,lambda_min_G,jacobian_drift,cg_stagnated"
)


def no_flip_instance(m=64, seed=0):
    """Network whose activation pattern cannot change under moderate steps:
    every unit's pre-activation sits far from zero on both inputs, so the
    model is exactly linear in w near the current weights."""
    X = np.array([[1.0, 0.0], [0.8, 0.6]])
    rng = np.random.default_rng(seed)
    w = np.tile([10.0, 0.0], (m, 1)) + 0.01 * rng.standard_normal((m, 2))
    a = rng.choice([-1.0, 1.0], size=m)
    p = NetworkParams(w=w, a=a, w0=w.copy())
    u0, _ = forward(p, X)
    ds = ng.Dataset(X, u0 + np.array([0.5, -0.5]))
    return p, ds


# ---------------------------------------------------------------------------
# losses and configuration


def test_squared_loss_spec():
    loss = squared_loss()
    r = np.array([0.0, 2.0, -3.0])
    assert np.array_equal(loss.grad(r, np.zeros(3)), r)
    assert np.array_equal(loss.value(r, np.zeros(3)), 0.5 * r**2)
    assert loss.mu == loss.L == 1.0
    assert loss.kappa == 1.0


def test_logcosh_loss_spec():
    loss = logcosh_loss()
    assert (loss.mu, loss.L, loss.kappa) == (0.5, 1.5, 3.0)
    r = np.linspace(-3, 3, 7)
    y = np.zeros(7)
    assert np.allclose(loss.grad(r, y), 0.5 * r + np.tanh(r))
    assert np.allclose(loss.value(r, y), 0.25 * r**2 + np.log(np.cosh(r)))


def test_logcosh_loss_overflow_safe():
    loss = logcosh_loss()
    u = np.array([800.0])
    y = np.zeros(1)
    v = loss.value(u, y)
    assert np.isfinite(v[0])
    # log cosh r ~ r - log 2 for large r
    assert v[0] == pytest.approx(0.25 * 800.0**2 + 800.0 - math.log(2.0))
    assert loss.grad(u, y)[0] == pytest.approx(401.0)


def test_loss_constant_validation():
    with pytest.raises(ValueError, match="mu"):
        logcosh_loss(mu=0.0)
    with pytest.raises(ValueError, match="0 < mu <= L"):
        ng.LossSpec(
            kind="bad", mu=2.0, L=1.0, grad=lambda u, y: u - y, value=lambda u, y: u - y
        )


def test_optimizer_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        OptimizerConfig(method="adam")
    with pytest.raises(ValueError, match="eta"):
        OptimizerConfig(eta=-0.1)
    with pytest.raises(ValueError, match="eta"):
        OptimizerConfig(eta=float("nan"))
    with pytest.raises(ValueError, match="damping"):
        OptimizerConfig(damping=-1.0)
    with pytest.raises(ValueError, match="cg_iters"):
        OptimizerConfig(cg_iters=0)
    with pytest.raises(ValueError, match="cg_tol"):
        OptimizerConfig(cg_tol=0.0)
    with pytest.raises(ValueError, match="max_steps"):
        OptimizerConfig(max_steps=0)
    for method in ("gd", "kfac"):
        with pytest.raises(ValueError, match="squared loss"):
            OptimizerConfig(method=method, loss=logcosh_loss())


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda p, ds, lm: ng.check_conditions(p, ds, kappa=math.nan), "kappa"),
        (lambda p, ds, lm: ng.gd_trajectory(lm, math.nan), "time"),
        (lambda p, ds, lm: ng.ngd_trajectory(lm, math.nan), "time"),
        (lambda p, ds, lm: OptimizerConfig(cg_tol=math.nan), "cg_tol"),
        (lambda p, ds, lm: OptimizerConfig(cg_tol=math.inf), "cg_tol"),
        (lambda p, ds, lm: OptimizerConfig(max_steps=2.5), "max_steps"),
        (lambda p, ds, lm: OptimizerConfig(cg_iters=2.5), "cg_iters"),
        (lambda p, ds, lm: OptimizerConfig(max_steps=True), "max_steps"),
        (lambda p, ds, lm: OptimizerConfig(cg_iters=True), "cg_iters"),
        (lambda p, ds, lm: OptimizerConfig(eta=True), "eta"),
        (lambda p, ds, lm: OptimizerConfig(damping=False), "damping"),
        (lambda p, ds, lm: OptimizerConfig(cg_tol=True), "cg_tol"),
        (lambda p, ds, lm: ng.check_conditions(p, ds, kappa=True), "kappa"),
    ],
    ids=["kappa-nan", "gd-t-nan", "ngd-t-nan", "cg_tol-nan", "cg_tol-inf",
         "max_steps-fraction", "cg_iters-fraction", "max_steps-bool", "cg_iters-bool",
         "eta-bool", "damping-bool", "cg_tol-bool", "kappa-bool"],
)
def test_range_checks_refuse_non_finite_and_fractional_values(call, name):
    # each of these values used to pass its check and come back as NaN, as
    # a stagnated or one-iteration solve, or as a TypeError inside train()
    ds = synth_sphere(4, 3, seed=0)
    p = init_network(8, 3, nu=1.0, seed=0)
    lm = ng.LinearizedModel(ng.jacobian(p, ds.X), p.w, forward(p, ds.X)[0], ds.y)
    with pytest.raises(ValueError, match=name):
        call(p, ds, lm)


@pytest.mark.parametrize(
    "step, kwargs, message",
    [
        (gd_step, {"eta": math.nan}, "eta must be finite and >= 0, got nan"),
        (ngd_exact_step, {"eta": math.nan}, "eta must be finite and >= 0, got nan"),
        (kfac_step, {"eta": math.nan}, "eta must be finite and >= 0, got nan"),
        (ngd_exact_step, {"damping": -1.0}, "damping must be None or >= 0, got -1.0"),
        (ngd_cg_step, {"cg_tol": math.nan}, "cg_tol must be finite and positive, got nan"),
        (ngd_cg_step, {"cg_tol": math.inf}, "cg_tol must be finite and positive, got inf"),
        (ngd_cg_step, {"cg_iters": 2.5}, "cg_iters must be an integer >= 1, got 2.5"),
    ],
    ids=["gd-eta-nan", "ngd_exact-eta-nan", "kfac-eta-nan", "ngd_exact-damping-negative",
         "ngd_cg-cg_tol-nan", "ngd_cg-cg_tol-inf", "ngd_cg-cg_iters-fraction"],
)
def test_steps_check_their_arguments_as_the_config_does(step, kwargs, message):
    # these used to return NaN weights, report a solve as (not) converged
    # by its tolerance, or raise TypeError inside cg_solve
    ds = synth_sphere(8, 4, seed=0)
    p = init_network(64, 4, nu=1.0, seed=0)
    args = {"eta": 0.5, **kwargs}
    with pytest.raises(ValueError, match=re.escape(message)):
        step(p, ds, **args)
    with pytest.raises(ValueError, match=re.escape(message)):
        OptimizerConfig(method=step.__name__.removesuffix("_step"), **args)


def test_optimizer_config_defaults():
    cfg = OptimizerConfig()
    assert cfg.method == "ngd_exact"
    assert cfg.eta == 0.5
    assert cfg.damping is None
    assert cfg.loss.kind == "squared"


# ---------------------------------------------------------------------------
# conjugate gradients


def test_cg_matches_direct_solve():
    rng = np.random.default_rng(0)
    R = rng.standard_normal((8, 8))
    A = R @ R.T + 0.5 * np.eye(8)
    b = rng.standard_normal(8)
    x, iters, converged = cg_solve(A, b, max_iters=200, tol=1e-12)
    assert converged
    assert iters <= 8 + 3  # exact in n steps up to roundoff
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-9)


def test_cg_zero_rhs():
    x, iters, converged = cg_solve(np.eye(4), np.zeros(4))
    assert converged and iters == 0
    assert np.array_equal(x, np.zeros(4))


def test_cg_budget_exhaustion():
    rng = np.random.default_rng(1)
    R = rng.standard_normal((12, 12))
    A = R @ R.T + 1e-6 * np.eye(12)
    b = rng.standard_normal(12)
    x, iters, converged = cg_solve(A, b, max_iters=2, tol=1e-14)
    assert not converged
    assert iters == 2


# ---------------------------------------------------------------------------
# single steps against dense oracles


def test_gd_step_formula():
    ds = synth_sphere(6, 4, seed=0)
    p = init_network(10, 4, nu=1.0, seed=1)
    stepped = gd_step(p, ds, eta=0.3)
    J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
    u = oracles.relu_forward_loops(p.w, p.a, ds.X)
    expected = p.w.ravel() - (0.3 / ds.n) * (J.T @ (u - ds.y))
    assert np.allclose(stepped.w.ravel(), expected, atol=1e-14)


@pytest.mark.parametrize(
    "loss, grad",
    [(squared_loss(), oracles.squared_grad), (logcosh_loss(mu=0.5), oracles.logcosh_grad(0.5))],
    ids=["squared", "logcosh"],
)
def test_ngd_exact_step_matches_pinv_oracle(loss, grad):
    ds = synth_sphere(6, 4, seed=2)
    p = init_network(32, 4, nu=1.0, seed=3)
    stepped = ngd_exact_step(p, ds, eta=0.7, damping=0.0, loss=loss)
    expected = oracles.ngd_step_dense(p.w, p.a, ds.X, ds.y, eta=0.7, grad=grad)
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(stepped.w - expected) <= 1e-10 * scale


def test_ngd_exact_step_with_damping():
    ds = synth_sphere(6, 4, seed=2)
    p = init_network(32, 4, nu=1.0, seed=3)
    stepped = ngd_exact_step(p, ds, eta=0.7, damping=0.5)
    J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
    u = oracles.relu_forward_loops(p.w, p.a, ds.X)
    z = np.linalg.solve(J @ J.T + 0.5 * np.eye(ds.n), u - ds.y)
    expected = p.w.ravel() - 0.7 * (J.T @ z)
    assert np.allclose(stepped.w.ravel(), expected, atol=1e-12)


@pytest.mark.parametrize("damping", [0.0, 1e-3])
@pytest.mark.parametrize("margin", [-1e-3, 0.0, 1e-13, 1e-11, 1e-3])
def test_solve_gram_guard_matches_eigenvalue_oracle(margin, damping):
    # G = Q diag(lam) Q^T with lambda_min + damping = margin; the guard must
    # call the damped matrix singular exactly when the eigenvalue test does
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    lam = np.linspace(0.5, 2.0, 8)
    lam[0] = margin - damping
    G = (Q * lam) @ Q.T
    G = 0.5 * (G + G.T)
    rhs = rng.standard_normal(8)
    singular = oracles.pd_guard_eig(G, damping)
    assert singular == (margin <= 1e-12)  # the construction lands on its side
    if singular:
        with pytest.raises(SingularMatrixError, match=r"lambda_min \+ damping = "):
            ng.optim._solve_gram(G, rhs, damping)
    else:
        z = ng.optim._solve_gram(G, rhs, damping)
        damped = G + damping * np.eye(8)
        expected = oracles.eig_solve(damped, rhs)
        err = np.abs(z - expected).max()
        assert err <= 1e-14 * np.linalg.cond(damped) * np.abs(expected).max()


def test_ngd_cg_step_matches_exact_step():
    ds = synth_sphere(8, 4, seed=6)
    p = init_network(24, 4, nu=1.0, seed=7)
    exact = ngd_exact_step(p, ds, eta=0.5, damping=1e-3)
    viacg, converged = ngd_cg_step(p, ds, eta=0.5, damping=1e-3, cg_iters=200, cg_tol=1e-14)
    assert converged
    assert np.allclose(viacg.w, exact.w, atol=1e-10)


def test_kfac_step_matches_kron_oracle():
    for seed in range(3):
        ds = synth_sphere(5, 3, seed=seed)
        p = init_network(8, 3, nu=1.0, seed=10 + seed)
        stepped = kfac_step(p, ds, eta=0.4, damping=0.0)
        expected = oracles.kfac_step_kron(p.w, p.a, ds.X, ds.y, eta=0.4)
        scale = max(np.linalg.norm(expected), 1.0)
        assert np.linalg.norm(stepped.w - expected) <= 1e-10 * scale


def test_kfac_rejects_rank_deficient_inputs():
    rng = np.random.default_rng(0)
    X = np.zeros((5, 3))
    two_d = rng.standard_normal((5, 2))
    X[:, :2] = two_d / np.linalg.norm(two_d, axis=1, keepdims=True)
    ds = ng.Dataset(X, np.ones(5))
    p = init_network(8, 3, nu=1.0, seed=0)
    with pytest.raises(RankDeficiencyError, match="rank"):
        kfac_step(p, ds, eta=0.1)


def linalg_calls(monkeypatch, *names):
    """Patch np.linalg.<name> for each name to record the shape of its
    first argument; returns name -> list of shapes."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(np.linalg, name)

        def record(A, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(np.shape(A))
            return _original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return calls


def test_kfac_solves_a_well_conditioned_unit_factor(monkeypatch):
    # damping = 0 on a positive definite unit factor: one Cholesky guard on
    # each factor (the 8 x 8 unit factor, then the 3 x 3 input factor),
    # direct solves, no eigvalsh and no pseudoinverse
    ds = synth_sphere(8, 3, seed=0)
    p = init_network(64, 3, nu=1.0, seed=1)
    S = (ds.X @ p.w.T >= 0.0).astype(float)
    assert np.linalg.eigvalsh(S @ S.T / p.m)[0] > 1e-3
    calls = linalg_calls(monkeypatch, "pinv", "cholesky", "eigvalsh")
    kfac_step(p, ds, eta=0.5, damping=0.0)
    assert calls == {"pinv": [], "cholesky": [(8, 8), (3, 3)], "eigvalsh": []}


def test_kfac_singular_unit_factor_falls_back_to_least_squares(monkeypatch):
    # m < n makes S S^T / m singular: the guard fails, the step takes the
    # pseudoinverse without an eigvalsh of the unit factor, the input
    # factor passes its own guard, and the step keeps the least-squares
    # meaning of the kron oracle
    ds = synth_sphere(8, 3, seed=1)
    p = init_network(4, 3, nu=1.0, seed=2)
    calls = linalg_calls(monkeypatch, "pinv", "cholesky", "eigvalsh")
    stepped = kfac_step(p, ds, eta=0.4, damping=0.0)
    assert calls == {"pinv": [(8, 8)], "cholesky": [(8, 8), (3, 3)], "eigvalsh": []}
    monkeypatch.undo()
    expected = oracles.kfac_step_kron(p.w, p.a, ds.X, ds.y, eta=0.4)
    assert np.linalg.norm(stepped.w - expected) <= 1e-10 * np.linalg.norm(expected - p.w)


def test_kfac_train_matches_pinv_reference_at_scale():
    # (n, d, m) = (256, 16, 4096) on isotropic inputs: three damping-0
    # steps through the guarded solve land where the pseudoinverse does
    ds0 = synth_sphere(256, 16, seed=1)
    ds = ng.Dataset(ng.forster_transform(ds0.X).Z, ds0.y)
    p = init_network(4096, 16, nu=1.0, seed=2)
    trace = train(p, ds, OptimizerConfig(method="kfac", eta=0.5, damping=0.0, max_steps=3))
    w = p.w
    for _ in range(3):
        w = oracles.kfac_step_pinv(w, p.a, ds.X, ds.y, eta=0.5)
    rel = np.linalg.norm(trace.final_params.w - w) / np.linalg.norm(w - p.w)
    assert rel <= 1e-10


def test_exact_interpolation_without_pattern_flips():
    # inside a fixed activation pattern the model is linear, so one exact
    # natural-gradient step at eta = 1 lands on the targets
    p, ds = no_flip_instance()
    stepped = ngd_exact_step(p, ds, eta=1.0, damping=0.0)
    pattern_before = (ds.X @ p.w.T >= 0).astype(float)
    pattern_after = (ds.X @ stepped.w.T >= 0).astype(float)
    assert np.array_equal(pattern_before, pattern_after)
    u, _ = forward(stepped, ds.X)
    assert np.linalg.norm(u - ds.y) <= 1e-10


def test_forward_is_linear_within_pattern():
    p, ds = no_flip_instance()
    jv = jacobian(p, ds.X)
    rng = np.random.default_rng(3)
    V = 0.01 * rng.standard_normal((p.m, p.d))
    lhs = forward(p.with_weights(p.w + V), ds.X)[0]
    rhs = forward(p, ds.X)[0] + jv.apply_weights(V)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# training loop


@pytest.mark.parametrize("method", ng.optim.METHODS)
def test_train_evaluates_network_once_per_iterate(monkeypatch, method):
    # K steps visit K + 1 iterates, W(0)..W(K), and each is evaluated once
    ds = synth_sphere(8, 4, seed=4)
    p = init_network(64, 4, nu=1.0, seed=5)
    seen = []
    original = ng.network.forward

    def counting(params, X):
        seen.append(params.w)
        return original(params, X)

    monkeypatch.setattr(ng.network, "forward", counting)
    trace = train(p, ds, OptimizerConfig(method=method, eta=0.5, damping=0.0, max_steps=3))
    assert len(trace.records) == 3
    assert len(seen) == 4
    assert seen[0] is p.w
    assert seen[-1] is trace.final_params.w
    assert len({id(w) for w in seen}) == 4


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("method", ng.optim.METHODS)
def test_train_forms_one_pre_activation_per_iterate(monkeypatch, method, diagnostics):
    # forward is the one evaluation of each iterate; its pattern serves the
    # step and the diagnostics, and a run from w0 takes the drift reference
    # S0 from its first forward, so activation_pattern and jacobian never run
    ds = synth_sphere(8, 4, seed=4)
    p = init_network(64, 4, nu=1.0, seed=5)
    calls = {"forward": 0, "activation_pattern": 0, "jacobian": 0}

    def counted(name):
        original = getattr(ng.network, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ng.network, name, counted(name))
    cfg = OptimizerConfig(
        method=method, eta=0.5, damping=0.0, max_steps=4,
        track_lambda_min=diagnostics, track_jacobian_drift=diagnostics,
    )
    trace = train(p, ds, cfg)
    assert calls == {
        "forward": len(trace.records) + 1,
        "activation_pattern": 0,
        "jacobian": 0,
    }


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("method", ["ngd_exact", "ngd_cg"])
def test_train_forms_each_gram_once_and_no_input_gram_per_step(monkeypatch, method, diagnostics):
    # the Gram of an iterate is formed once, by the lambda_min diagnostic or
    # else for the step, from the run's one X X^T: pattern_gram runs for
    # each iterate that needs a Gram and finite_gram, which forms X X^T
    # again, never
    ds = synth_sphere(8, 4, seed=4)
    p = init_network(64, 4, nu=1.0, seed=5)
    calls = {"pattern_gram": 0, "finite_gram": 0}

    def counted(name):
        original = getattr(ng.gram, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ng.gram, name, counted(name))
    cfg = OptimizerConfig(
        method=method, eta=0.5, damping=0.0, max_steps=4, track_lambda_min=diagnostics
    )
    steps = len(train(p, ds, cfg).records)
    assert steps == 4
    assert calls == {"pattern_gram": steps + diagnostics, "finite_gram": 0}


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("damping", [0.0, None])
@pytest.mark.parametrize("method", ng.optim.METHODS)
def test_train_steps_as_the_public_steps_do(method, damping, diagnostics):
    # the public steps, each evaluating the network itself, are the
    # reference path: train() must give the same residual norms,
    # diagnostics and final weights bit for bit.  The drift reference is the
    # first forward's pattern in train(), so a step that wrote the pattern
    # it was given would show in jacobian_drift
    ds = synth_sphere(12, 4, seed=6)
    p = init_network(96, 4, nu=1.0, seed=7)
    cfg = OptimizerConfig(
        method=method, eta=0.5, damping=damping, max_steps=4,
        track_lambda_min=diagnostics, track_jacobian_drift=diagnostics,
    )
    step = {
        "gd": lambda q: gd_step(q, ds, 0.5),
        "ngd_exact": lambda q: ngd_exact_step(q, ds, 0.5, damping),
        "ngd_cg": lambda q: ngd_cg_step(q, ds, 0.5, damping)[0],
        "kfac": lambda q: kfac_step(q, ds, 0.5, damping),
    }[method]
    trace = train(p, ds, cfg)
    assert len(trace.records) == 4
    current, S0, XXt = p, forward(p, ds.X)[1], ds.X @ ds.X.T
    for rec in trace.records:
        current = step(current)
        u, S = forward(current, ds.X)
        rho = u - ds.y
        assert rec.residual_norm == math.sqrt(float(rho @ rho)), rec.k
        if diagnostics:
            assert rec.lambda_min_G == ng.min_eig(ng.finite_gram(jacobian(current, ds.X))), rec.k
            assert rec.jacobian_drift == ng.gram.jacobian_drift(XXt, S, S0), rec.k
    assert trace.final_params.w.tobytes() == current.w.tobytes()


@pytest.mark.parametrize("method", ["gd", "ngd_exact", "kfac"])
def test_train_peak_memory_below_one_float64_pattern(method):
    # the pattern is carried as bool and X W^T is formed one unit block at
    # a time, so no n x m float64 array exists: at n = 128, m = 131072 one
    # such array alone is 128 MiB, and a float64 pattern next to whole
    # pre-activations peaks at about 257 MiB
    ds = synth_sphere(128, 32, seed=0)
    p = init_network(131072, 32, nu=1.0, seed=1)
    tracemalloc.start()
    try:
        train(p, ds, OptimizerConfig(method=method, eta=0.5, max_steps=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("moved", [False, True])
def test_train_drift_reference_is_the_pattern_at_w0(monkeypatch, moved):
    # a run that starts away from w0 evaluates the pattern at w0 once; either
    # way the drift column is that of S0 = activation_pattern at w0
    ds = synth_sphere(8, 4, seed=4)
    p = init_network(64, 4, nu=1.0, seed=5)
    if moved:
        p = p.with_weights(p.w + 0.3 * np.random.default_rng(0).standard_normal(p.w.shape))
    S0 = ng.network.activation_pattern(p.with_weights(p.w0), ds.X)
    calls = []
    original = ng.network.activation_pattern

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ng.network, "activation_pattern", counting)
    cfg = OptimizerConfig(eta=0.5, damping=0.0, max_steps=3, track_jacobian_drift=True)
    trace = train(p, ds, cfg)
    assert len(calls) == int(moved)
    XXt = ds.X @ ds.X.T
    current = p
    for rec in trace.records:
        current = ngd_exact_step(current, ds, eta=0.5, damping=0.0)
        _, S = forward(current, ds.X)
        assert rec.jacobian_drift == ng.gram.jacobian_drift(XXt, S, S0)


def test_train_produces_contracting_trace():
    ds = synth_sphere(10, 5, seed=0)
    p = init_network(512, 5, nu=1.0, seed=1)
    cfg = OptimizerConfig(method="ngd_exact", eta=0.5, damping=0.0, max_steps=15)
    trace = train(p, ds, cfg)
    assert trace.method == "ngd_exact"
    assert len(trace.records) == 15
    res = [trace.initial_residual_norm] + [r.residual_norm for r in trace.records]
    assert all(b < a for a, b in zip(res, res[1:]))
    # squared-residual bound with factor 1 - eta
    for rec in trace.records:
        assert rec.predicted_bound == pytest.approx(
            0.5**rec.k * trace.initial_residual_norm**2
        )
    assert trace.final_residual_norm == trace.records[-1].residual_norm


def test_train_validates_dataset():
    ds = synth_sphere(6, 3, seed=0)
    bad = ng.Dataset(2.0 * ds.X, ds.y)
    p = init_network(8, 3, nu=1.0, seed=0)
    with pytest.raises(ValueError, match="failed validation"):
        train(p, bad, OptimizerConfig(max_steps=1))


def test_train_zero_step_size_is_stationary():
    ds = synth_sphere(6, 3, seed=1)
    p = init_network(8, 3, nu=1.0, seed=2)
    trace = train(p, ds, OptimizerConfig(eta=0.0, damping=0.0, max_steps=4))
    for rec in trace.records:
        assert rec.residual_norm == pytest.approx(trace.initial_residual_norm)
        assert rec.weight_drift == 0.0


def test_train_early_stop_on_interpolation():
    p, ds = no_flip_instance()
    cfg = OptimizerConfig(method="ngd_exact", eta=1.0, damping=0.0, max_steps=10)
    trace = train(p, ds, cfg)
    assert len(trace.records) == 1
    assert trace.records[0].residual_norm <= 1e-12


def test_train_divergence_detection():
    ds = synth_sphere(6, 3, seed=3)
    p = init_network(8, 3, nu=1.0, seed=4)
    cfg = OptimizerConfig(method="gd", eta=1e200, max_steps=5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        train(p, ds, cfg)
    assert err.value.step is not None


@pytest.mark.parametrize("nu, label_scale", [(1e300, 1.0), (1.0, 1e200)])
def test_train_non_finite_residual_norm_diverges(nu, label_scale):
    # outputs and weights stay finite, but ||u - y||^2 overflows: the
    # initial residual norm is inf, which is divergence at step 0
    base = synth_sphere(6, 3, seed=3)
    ds = ng.Dataset(base.X, label_scale * base.y)
    p = init_network(8, 3, nu=nu, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow warning escapes
        warnings.filterwarnings("ignore", "targets reach", UserWarning)
        with pytest.raises(DivergenceError, match="at step 0: residual norm is inf") as err:
            train(p, ds, OptimizerConfig(method="ngd_exact", eta=0.5, max_steps=3))
    assert err.value.step == 0


def test_train_gd_has_no_predicted_bound():
    ds = synth_sphere(6, 3, seed=5)
    p = init_network(32, 3, nu=1.0, seed=6)
    trace = train(p, ds, OptimizerConfig(method="gd", eta=0.5, max_steps=3))
    assert all(math.isnan(rec.predicted_bound) for rec in trace.records)


def test_train_singular_gram_reports_step():
    ds = synth_sphere(12, 2, seed=25)
    p = init_network(4, 2, nu=1.0, seed=26)  # m d = 8 < n = 12, so rank(J J^T) < n
    cfg = OptimizerConfig(method="ngd_exact", eta=0.5, damping=0.0, max_steps=3)
    with pytest.raises(SingularMatrixError, match=r"at step 1: .*lambda_min \+ damping") as err:
        train(p, ds, cfg)
    assert err.value.step == 1


def test_train_kfac_rank_error_reports_step():
    ds = synth_sphere(4, 6, seed=0)  # rank(X) = 4 < d = 6
    p = init_network(8, 6, nu=1.0, seed=0)
    cfg = OptimizerConfig(method="kfac", eta=0.5, max_steps=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RankDeficiencyError, match=r"at step 1: input factor") as err:
            train(p, ds, cfg)
    assert err.value.step == 1
    assert caught == []  # lambda_min(X^T X) ~ 0 is the rank error, not a step-size warning


def test_train_general_loss_uses_widened_factor():
    ds = synth_sphere(8, 4, seed=7)
    p = init_network(256, 4, nu=1.0, seed=8)
    cfg = OptimizerConfig(
        method="ngd_exact", eta=0.5, damping=0.0, max_steps=6, loss=logcosh_loss()
    )
    trace = train(p, ds, cfg)
    factor = 1.0 - 2.0 * 0.5 * 0.5 * 1.5 / 2.0  # 1 - 2 eta mu L / (mu + L)
    assert trace.records[0].predicted_bound == pytest.approx(
        factor * trace.initial_residual_norm**2
    )
    res = [trace.initial_residual_norm] + [r.residual_norm for r in trace.records]
    assert res[-1] < res[0]


def test_train_cg_marks_stagnation():
    ds = synth_sphere(16, 8, seed=9)
    p = init_network(64, 8, nu=1.0, seed=10)
    cfg = OptimizerConfig(method="ngd_cg", eta=0.5, cg_iters=1, max_steps=2)
    trace = train(p, ds, cfg)
    assert all(rec.cg_stagnated is True for rec in trace.records)
    healthy = train(
        p, ds, OptimizerConfig(method="ngd_cg", eta=0.5, cg_iters=400, max_steps=2)
    )
    assert all(rec.cg_stagnated is False for rec in healthy.records)
    # the CSV carries the flag as 1 / 0 in its last column
    for t, cell in ((trace, "1"), (healthy, "0")):
        rows = t.csv_text().strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in rows] == [cell, cell]


def test_train_cg_stagnates_on_singular_gram_without_overflow():
    # m*d = 4 < n = 8: the undamped Gram is singular, and at seeds 15 and
    # 160 roundoff left a tiny positive curvature that CG stepped by
    cfg = OptimizerConfig(method="ngd_cg", eta=0.5, damping=0.0, max_steps=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for seed in range(200):
            p, ds = init_network(2, 2, 1.0, seed), synth_sphere(8, 2, seed)
            stepped, _ = ngd_cg_step(p, ds, 0.5, damping=0.0)
            assert np.all(np.isfinite(stepped.w)), seed
        for seed in (15, 160):
            trace = train(init_network(2, 2, 1.0, seed), synth_sphere(8, 2, seed), cfg)
            assert np.all(np.isfinite(trace.final_params.w))
            assert trace.records[0].cg_stagnated is True


def test_train_cg_agrees_with_exact_solve():
    ds = synth_sphere(10, 5, seed=11)
    p = init_network(128, 5, nu=1.0, seed=12)
    kw = dict(eta=0.5, damping=1e-6, max_steps=5)
    exact = train(p, ds, OptimizerConfig(method="ngd_exact", **kw))
    viacg = train(p, ds, OptimizerConfig(method="ngd_cg", cg_iters=500, cg_tol=1e-13, **kw))
    for a, b in zip(exact.records, viacg.records):
        assert a.residual_norm == pytest.approx(b.residual_norm, abs=1e-8)


def test_train_tracked_diagnostics():
    ds = synth_sphere(8, 4, seed=13)
    p = init_network(256, 4, nu=1.0, seed=14)
    cfg = OptimizerConfig(
        eta=0.5, damping=0.0, max_steps=3,
        track_lambda_min=True, track_jacobian_drift=True,
    )
    trace = train(p, ds, cfg)
    J0 = oracles.dense_jacobian_loops(p.w0, p.a, ds.X)
    current = p
    for rec in trace.records:
        current = ngd_exact_step(current, ds, eta=0.5, damping=0.0)
        Jk = oracles.dense_jacobian_loops(current.w, current.a, ds.X)
        assert rec.lambda_min_G > 0
        assert rec.lambda_min_G == pytest.approx(np.linalg.eigvalsh(Jk @ Jk.T)[0], rel=1e-9)
        assert rec.jacobian_drift == pytest.approx(np.linalg.norm(Jk - J0, 2), rel=1e-9)
    plain = train(p, ds, OptimizerConfig(eta=0.5, damping=0.0, max_steps=3))
    assert all(rec.lambda_min_G is None for rec in plain.records)
    assert all(rec.jacobian_drift is None for rec in plain.records)


@pytest.mark.parametrize("m", [1000, 4096])
def test_train_lambda_min_is_finite_gram_eigenvalue(m):
    ds = synth_sphere(8, 4, seed=13)
    p = init_network(m, 4, nu=1.0, seed=14)
    cfg = OptimizerConfig(eta=0.5, damping=0.0, max_steps=3, track_lambda_min=True)
    trace = train(p, ds, cfg)
    current = p
    for rec in trace.records:
        current = ngd_exact_step(current, ds, eta=0.5, damping=0.0)
        G = ng.finite_gram(jacobian(current, ds.X))
        assert rec.lambda_min_G == float(np.linalg.eigvalsh(G)[0])


def test_steps_to_threshold():
    ds = synth_sphere(8, 4, seed=15)
    p = init_network(512, 4, nu=1.0, seed=16)
    trace = train(p, ds, OptimizerConfig(eta=0.5, damping=0.0, max_steps=20))
    k = trace.steps_to_threshold(1e-2)
    assert k is not None
    assert trace.records[k - 1].residual_norm <= 1e-2
    if k > 1:
        assert trace.records[k - 2].residual_norm > 1e-2
    assert trace.steps_to_threshold(0.0) is None


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_csv_layout():
    ds = synth_sphere(6, 3, seed=17)
    p = init_network(64, 3, nu=1.0, seed=18)
    trace = train(p, ds, OptimizerConfig(eta=0.5, damping=0.0, max_steps=4))
    text = trace.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + 4
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert len(cells) == 9
        assert cells[0] == str(k)
        # repr round-trips exactly
        assert float(cells[1]) == trace.records[k - 1].residual_norm
        assert cells[6] == "" and cells[7] == ""  # diagnostics not tracked
        assert cells[8] == ""  # no CG in ngd_exact


def test_trace_csv_blank_cells_for_gd_bound():
    ds = synth_sphere(6, 3, seed=19)
    p = init_network(32, 3, nu=1.0, seed=20)
    trace = train(p, ds, OptimizerConfig(method="gd", eta=0.5, max_steps=2))
    for line in trace.csv_text().strip().split("\n")[1:]:
        assert line.split(",")[5] == ""


def test_trace_json_round_trip():
    ds = synth_sphere(6, 3, seed=21)
    p = init_network(32, 3, nu=1.0, seed=22)
    cfg = OptimizerConfig(method="ngd_cg", eta=0.25, cg_iters=50, max_steps=3)
    trace = train(p, ds, cfg)
    doc = json.loads(json.dumps(trace.json_dict(), sort_keys=True))
    summary = {
        "method": "ngd_cg", "eta": 0.25, "steps": 3,
        "initial_residual_norm": trace.initial_residual_norm,
        "final_residual_norm": trace.records[-1].residual_norm,
    }
    assert trace.summary() == summary
    assert {key: doc[key] for key in summary} == summary  # the document's head
    assert len(doc["records"]) == 3
    assert list(doc["records"][0]) == sorted(TRACE_HEADER.split(","))  # the CSV's columns
    assert [rec["k"] for rec in doc["records"]] == [1, 2, 3]
    assert doc["records"][0]["residual_norm"] == trace.records[0].residual_norm
    assert all(rec["cg_stagnated"] in (True, False) for rec in doc["records"])
    gd = train(p, ds, OptimizerConfig(method="gd", eta=0.5, max_steps=2))
    assert gd.json_dict()["records"][0]["predicted_bound"] is None  # NaN maps to null


def test_trace_deterministic():
    ds = synth_sphere(6, 3, seed=23)
    p = init_network(32, 3, nu=1.0, seed=24)
    cfg = OptimizerConfig(eta=0.5, damping=0.0, max_steps=5)
    assert train(p, ds, cfg).csv_text() == train(p, ds, cfg).csv_text()


# One digest of trace CSV plus final weights per method and n, diagnostics
# off: at n = 256 the n x n guard factors in four SOLVE_PANEL panels, and at
# n = 200 the unit blocks are 640 units wide, not all of m.
THREAD_DIGESTS = """
import hashlib
import natgrad as ng
for n in (256, 200):
    raw = ng.synth_sphere(n, 8, seed=3)
    ds = ng.Dataset(ng.forster_transform(raw.X).Z, raw.y)
    for method in ng.optim.METHODS:
        p = ng.init_network(1024, 8, 1.0, seed=4)
        trace = ng.train(p, ds, ng.OptimizerConfig(method=method, max_steps=5))
        digest = hashlib.sha256(trace.csv_text().encode())
        digest.update(trace.final_params.w.tobytes())
        print(method, digest.hexdigest())
"""


def test_train_does_not_depend_on_blas_threads_across_panels():
    """At (256, 8, 1024) and (200, 8, 1024) on Forster data, every method's
    trace and final weights are the same bytes at 1 and at 2 BLAS threads.
    That is measured, not general.  n = 200 holds because unit blocks are a
    multiple of 64 units wide (640, not BLOCK_BYTES / 8n = 655); at
    n = 1000 it does not, because grad_matrix's product has inner
    dimension n there (ROADMAP item 8)."""
    src = str(Path(ng.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_DIGESTS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0][::2] == 2 * list(ng.optim.METHODS)
    assert digests[0] == digests[1]


def test_empty_trace_final_residual():
    trace = ConvergenceTrace(
        method="gd", eta=0.1, initial_residual_norm=2.5,
        records=(), final_params=init_network(2, 2, 1.0, seed=0),
    )
    assert trace.final_residual_norm == 2.5
    assert trace.csv_text().strip() == TRACE_HEADER
