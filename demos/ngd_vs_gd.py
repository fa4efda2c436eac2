"""Race natural gradient descent against plain gradient descent.

Same network, same data, same step size.  The natural gradient update
preconditions by the inverse output Gram, so its squared residual should
track (1 - eta)^k exactly in the linear regime, while gradient descent
crawls at a rate set by the Gram spectrum.
"""
import numpy as np

import natgrad as ng

ds = ng.synth_sphere(n=16, d=8, seed=1)
params = ng.init_network(m=4096, d=8, nu=1.0, seed=5)
eta, steps = 0.5, 14

lam0 = ng.min_eig(ng.finite_gram(ng.jacobian(params, ds.X)))
print(f"lambda_min(G(0)) = {lam0:.4f}")
report = ng.check_conditions(params, ds)
print(f"conditions at init: C = {report.C_estimate:.3f}, "
      f"eta_max = {report.max_eta_ngd:.3f}\n")

traces = {}
for method in ("ngd_exact", "gd"):
    cfg = ng.OptimizerConfig(method=method, eta=eta, damping=0.0,
                             max_steps=steps)
    traces[method] = ng.train(params, ds, cfg)

def residual(trace, k):
    return trace.initial_residual_norm if k == 0 else trace.records[k - 1].residual_norm

print(f"{'k':>3} {'ngd residual':>14} {'(1-eta)^k bound':>16} {'gd residual':>14}")
r0 = traces["ngd_exact"].initial_residual_norm
for k in range(steps + 1):
    bound = (1 - eta) ** (k / 2) * r0   # bound on sqrt of squared-residual rate
    print(f"{k:3d} {residual(traces['ngd_exact'], k):14.6e} "
          f"{bound:16.6e} {residual(traces['gd'], k):14.6e}")

thr = 1e-3
print(f"\nsteps to residual {thr}:")
for method, trace in traces.items():
    print(f"  {method:10s} {trace.steps_to_threshold(thr)}")
