"""Acceptance suite: every headline prediction checked end to end.

One test per criterion, each reporting a single pass/fail line through the
registry in conftest (echoed in the pytest terminal summary).  Criterion 13
is expected to fail: the claimed eigenvalue floor contradicts the fixed
diagonal of the limiting kernel, so the test is marked strict-xfail and
documents the obstruction instead of weakening the check.
"""
import json
import math

import numpy as np
import pytest

import oracles
import natgrad as ng
from natgrad.cli import main
from conftest import record_criterion


def test_criterion_01_ngd_rate(wide_runs):
    name = "ngd per-step squared-residual contraction at eta=0.5"
    limit = (1.0 - wide_runs["eta"]) + 0.05
    floor = wide_runs["rate_floor"]
    good_seeds = 0
    for run in wide_runs["runs"]:
        trace = run["trace"]
        res = [trace.initial_residual_norm] + [r.residual_norm for r in trace.records]
        ratios = [
            (b / a) ** 2 for a, b in zip(res, res[1:]) if a >= floor
        ]
        if ratios and max(ratios) <= limit:
            good_seeds += 1
    ok = good_seeds >= 9 and wide_runs["elapsed"] < 30.0
    assert record_criterion(1, name, ok), (
        f"{good_seeds}/10 seeds within ratio {limit}, "
        f"elapsed {wide_runs['elapsed']:.1f}s"
    )


def test_criterion_02_one_step_convergence():
    name = "one-step linearized convergence at eta=1; two-step wide-net residual"
    ds = ng.synth_sphere(16, 8, seed=0)
    p = ng.init_network(2**14, 8, 1.0, seed=0)
    jv = ng.jacobian(p, ds.X)
    u0, _ = ng.forward(p, ds.X)
    lm = ng.LinearizedModel(jv, p.w, u0, ds.y)
    r0 = float(np.linalg.norm(ds.y - u0))
    _, u1 = ng.ngd_discrete(lm, eta=1.0, k=1)
    linear_ok = float(np.linalg.norm(ds.y - u1)) <= 1e-10 * r0

    cfg = ng.OptimizerConfig(method="ngd_exact", eta=1.0, damping=0.0, max_steps=2)
    trace = ng.train(p, ds, cfg)
    relu_ok = trace.final_residual_norm <= 1e-2 * trace.initial_residual_norm
    assert record_criterion(2, name, linear_ok and relu_ok)


def test_criterion_03_kfac_kron_oracle():
    name = "kfac update equals dense kronecker oracle on 20 instances"
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 64 // d + 1))  # keeps m*d <= 64
        n = int(rng.integers(d, d + 4))
        ds = ng.synth_sphere(max(n, 2), d, seed=seed)
        p = ng.init_network(m, d, 1.0, seed=seed + 100)
        stepped = ng.kfac_step(p, ds, eta=0.4, damping=0.0)
        expected = oracles.kfac_step_kron(p.w, p.a, ds.X, ds.y, eta=0.4)
        scale = max(float(np.linalg.norm(expected - p.w)), 1e-12)
        worst = max(worst, float(np.linalg.norm(stepped.w - expected)) / scale)
    assert record_criterion(3, name, worst <= 1e-10), f"worst relative error {worst:.3e}"


def test_criterion_04_kfac_output_identity():
    name = "kfac first-step output change matches leverage-scaled residual"
    ds = ng.synth_sphere(16, 8, seed=7)
    p = ng.init_network(8192, 8, 1.0, seed=7)
    eta = 0.5
    u0, _ = ng.forward(p, ds.X)
    u1, _ = ng.forward(ng.kfac_step(p, ds, eta=eta, damping=0.0), ds.X)
    H = ds.X @ np.linalg.solve(ds.X.T @ ds.X, ds.X.T)
    predicted = eta * np.diag(H) * (ds.y - u0)
    rel = float(np.linalg.norm((u1 - u0) - predicted) / np.linalg.norm(predicted))
    assert record_criterion(4, name, rel <= 0.1), f"relative error {rel:.3e}"


def test_criterion_05_kfac_rate_after_preprocessing():
    name = "kfac geometric rate 1 - eta d/n on isotropic inputs"
    raw = ng.synth_sphere(16, 8, seed=11)
    fr = ng.forster_transform(raw.X)
    ds = ng.Dataset(fr.Z, raw.y)
    p = ng.init_network(8192, 8, 1.0, seed=11)
    eta = 0.5
    cfg = ng.OptimizerConfig(method="kfac", eta=eta, damping=0.0, max_steps=10)
    trace = ng.train(p, ds, cfg)
    k = len(trace.records)
    gm = (trace.final_residual_norm / trace.initial_residual_norm) ** (1.0 / k)
    target = 1.0 - eta * ds.d / ds.n
    assert record_criterion(5, name, abs(gm - target) <= 0.05), (
        f"geometric-mean factor {gm:.4f} vs target {target}"
    )


def test_criterion_06_forster_transform():
    name = "forster transform reaches radial isotropy on 64x8 data"
    ds = ng.synth_sphere(64, 8, seed=0)
    res = ng.forster_transform(ds.X, tol=1e-8, max_iter=10000)
    iso_err = float(np.linalg.norm(res.Z.T @ res.Z - 8.0 * np.eye(8), "fro"))
    row_err = float(np.abs(np.linalg.norm(res.Z, axis=1) - 1.0).max())
    recon = ng.normalize_rows(ds.X @ res.A)
    recon_err = float(np.abs(recon - res.Z).max())
    ok = (
        res.iterations <= 10000
        and iso_err <= 1e-8
        and row_err <= 1e-10
        and recon_err <= 1e-9
    )
    assert record_criterion(6, name, ok), (
        f"iso {iso_err:.2e}, rows {row_err:.2e}, recon {recon_err:.2e}"
    )


def test_criterion_07_jacobian_finite_differences():
    name = "jacobian matches finite differences away from kinks"
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 20:
        seed += 1
        rng = np.random.default_rng(seed)
        n, d, m = int(rng.integers(3, 8)), int(rng.integers(2, 6)), int(rng.integers(4, 16))
        ds = ng.synth_sphere(n, max(d, 2), seed=seed)
        p = ng.init_network(m, max(d, 2), 1.0, seed=seed + 500)
        if np.abs(ds.X @ p.w.T).min() <= 1e-3:
            continue  # too close to a kink for differencing
        J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
        J_fd = oracles.fd_jacobian(lambda w: ng.forward(p.with_weights(w), ds.X)[0], p.w)
        rel = float(np.linalg.norm(J - J_fd) / np.linalg.norm(J))
        worst = max(worst, rel)
        # the library's factored Jacobian through its two products
        jv = ng.jacobian(p, ds.X)
        V, rho = rng.standard_normal(p.w.shape), rng.standard_normal(ds.n)
        pairs = ((jv.apply_weights(V), J @ V.ravel()), (jv.grad_matrix(rho).ravel(), J.T @ rho))
        for lib, ref in pairs:
            worst = max(worst, float(np.linalg.norm(lib - ref) / np.linalg.norm(ref)))
        checked += 1
    assert record_criterion(7, name, worst <= 1e-6), f"worst relative error {worst:.3e}"


def test_criterion_08_gram_correctness():
    name = "limiting gram: MC agreement, factored identity, half diagonal"
    ds = ng.synth_sphere(16, 8, seed=0)
    exact = ng.limiting_gram(ds)
    est, se = ng.mc_limiting_gram(ds, nu=1.0, samples=10**5, seed=0)
    mc_ok = bool(np.all(np.abs(est - exact) <= 4.0 * se))

    p = ng.init_network(256, 8, 1.0, seed=1)
    G = ng.finite_gram(ng.jacobian(p, ds.X))
    J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
    factored_ok = float(np.abs(G - J @ J.T).max()) <= 1e-12

    diag_ok = bool(np.all(np.diag(exact) == 0.5))
    assert record_criterion(8, name, mc_ok and factored_ok and diag_ok)


def test_criterion_09_hadamard_bounds():
    name = "hadamard eigenvalue bounds hold on 200 PD pairs"
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        RA = rng.standard_normal((k, k))
        RB = rng.standard_normal((k, k))
        A = RA @ RA.T + 0.1 * np.eye(k)
        B = RB @ RB.T + 0.1 * np.eye(k)
        lo, hi = ng.hadamard_bounds(A, B)
        eigs = np.linalg.eigvalsh(A * B)
        if eigs[0] < lo - 1e-10 or eigs[-1] > hi + 1e-10:
            violations += 1
    assert record_criterion(9, name, violations == 0), f"{violations} violations"


def test_criterion_10_gram_concentration():
    name = "initial gram concentrates near the limiting gram at required width"
    ds = ng.synth_sphere(16, 8, seed=2024)
    lam_hat = ng.min_eig(ng.limiting_gram(ds))
    m = math.ceil(50.0 * ds.n * math.log(ds.n) / lam_hat)
    hits = 0
    for seed in range(20):
        p = ng.init_network(m, 8, 1.0, seed=seed)
        lam0 = ng.min_eig(ng.finite_gram(ng.jacobian(p, ds.X)))
        if lam0 >= 0.75 * lam_hat:
            hits += 1
    assert record_criterion(10, name, hits >= 18), f"{hits}/20 seeds at width m={m}"


def test_criterion_11_drift_bounds(wide_runs):
    name = "weight drift stays inside predicted radii on all rate runs"
    ok = True
    for run in wide_runs["runs"]:
        trace = run["trace"]
        lam0 = run["lambda0"]
        r0 = trace.initial_residual_norm
        n = run["ds"].n
        m = wide_runs["m"]
        total_bound = 3.0 * r0 / math.sqrt(lam0)
        per_unit_bound = 4.0 * math.sqrt(n) * r0 / (math.sqrt(m) * lam0)
        for rec in trace.records:
            if rec.weight_drift > total_bound or rec.per_unit_max_drift > per_unit_bound:
                ok = False
    assert record_criterion(11, name, ok)


def test_criterion_12_general_loss_rate():
    name = "general-loss contraction at eta = 2/(mu+L)"
    ds = ng.synth_sphere(8, 4, seed=3)
    p = ng.init_network(64, 4, 1.0, seed=3)
    jv = ng.jacobian(p, ds.X)
    lm = ng.LinearizedModel(jv, p.w, ng.forward(p, ds.X)[0], ds.y)
    loss = ng.logcosh_loss()  # mu = 0.5, L = 1.5
    eta = 2.0 / (loss.mu + loss.L)
    limit = 1.0 - 2.0 * eta * loss.mu * loss.L / (loss.mu + loss.L) + 0.05
    prev = float(np.linalg.norm(lm.y - lm.u0))
    ok = True
    for k in range(1, 21):
        _, u = ng.ngd_discrete(lm, eta=eta, k=k, loss=loss)
        cur = float(np.linalg.norm(lm.y - u))
        if prev > 1e-10 and (cur / prev) ** 2 > limit:
            ok = False
        prev = cur
    assert record_criterion(12, name, ok)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "every diagonal entry of the limiting kernel equals 1/2, so its "
        "smallest eigenvalue can never exceed 1/2, while the claimed floor "
        "n^beta/2 exceeds 1/2 for all n >= 2 and beta > 0; the bound is "
        "unsatisfiable as stated and the faithful check must fail"
    ),
)
def test_criterion_13_limiting_gram_floor():
    name = "limiting-gram eigenvalue floor n^beta/2 across random datasets"
    fraction = ng.lambda0_floor_check(d=16, n=64, beta=0.3, trials=20, seed=0)
    assert record_criterion(13, name, fraction >= 19 / 20), (
        f"only {fraction:.0%} of trials cleared the floor"
    )


def test_criterion_14_limit_point_equality():
    name = "gd and ngd linearized limits coincide with min-norm solution"
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(3, 8)), int(rng.integers(3, 6))
        m = n + int(rng.integers(2, 10))  # m * d > n parameters
        ds = ng.synth_sphere(n, d, seed=seed)
        p = ng.init_network(m, d, 1.0, seed=seed)
        lm = ng.LinearizedModel(
            ng.jacobian(p, ds.X),
            rng.standard_normal((m, d)),
            rng.standard_normal(n),
            rng.standard_normal(n),
        )
        horizon = ng.t_infinity(lm)
        w_gd = ng.gd_trajectory(lm, horizon).ravel()
        w_ngd = ng.ngd_trajectory(lm, horizon).ravel()
        J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
        w_star = oracles.min_norm_lsq(J, lm.w0.ravel(), lm.u0, lm.y)
        scale = max(float(np.linalg.norm(w_star - lm.w0.ravel())), 1e-12)
        if (
            np.linalg.norm(w_gd - w_ngd) > 1e-9 * scale
            or np.linalg.norm(w_gd - w_star) > 1e-9 * scale
            or np.linalg.norm(w_ngd - w_star) > 1e-9 * scale
        ):
            ok = False
    assert record_criterion(14, name, ok)


def test_criterion_15_generalization_arithmetic():
    name = "generalization quad term exact on orthonormal pair"
    ds = ng.Dataset(np.eye(2), np.array([1.0, 1.0]))
    Ginf = ng.limiting_gram(ds)
    rep = ng.generalization_bound(Ginf, ds.y)
    zero = ng.generalization_bound(Ginf, np.zeros(2))
    ok = rep.quad_term == 2.0 and zero.quad_term == 0.0
    assert record_criterion(15, name, ok), (
        f"quad terms {rep.quad_term!r}, {zero.quad_term!r}"
    )


def test_criterion_16_determinism(tmp_path):
    name = "training runs are byte-identical across reruns"
    def run(out_dir):
        cfg = {
            "data": {"synth": {"n": 8, "d": 4, "seed": 0}},
            "model": {"m": 128, "nu": 1.0, "seed": 1},
            "optimizer": {"method": "ngd_exact", "eta": 0.5, "max_steps": 10},
            "output": {"dir": str(out_dir)},
            "sweeps": {"eta": [0.25, 0.75]},
        }
        cfg_path = tmp_path / f"{out_dir.name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--quiet"]) == 0
        return {
            p.name: p.read_bytes()
            for p in sorted(out_dir.iterdir())
            if p.name.endswith(".csv")
        }

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    ok = list(first) == list(second) and all(first[k] == second[k] for k in first)
    assert record_criterion(16, name, ok)
