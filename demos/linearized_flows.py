"""Closed-form training dynamics of the model linearized at its start.

For a fixed Jacobian both gradient flow and natural gradient flow admit
closed forms.  They trace different weight paths but share the same
destination: the minimum-norm interpolant.  The discrete natural
gradient recursion contracts residuals by exactly (1 - eta) per step and
interpolates in a single step at eta = 1.  The model is a small network
linearized at its initialization, held as its factored Jacobian.
"""
import numpy as np

import natgrad as ng

ds = ng.synth_sphere(n=5, d=3, seed=4)
params = ng.init_network(m=8, d=3, nu=1.0, seed=4)
y = ds.y

u0, S0 = ng.forward(params, ds.X)  # outputs and activation pattern at the start
lin = ng.LinearizedModel(ng.JacobianView(ds.X, S0, params.a), params.w, u0, y)
print(f"lambda_min(J J^T) = {lin.eig[0][0]:.4f}")

print("\nresiduals along the two flows:")
print(f"{'t':>6} {'gradient flow':>16} {'natural flow':>16} {'exp(-t) r0':>12}")
r0 = np.linalg.norm(y - lin.u0)
for t in (0.0, 0.5, 1.0, 2.0, 4.0):
    rg, rn, _ = ng.flow_norms(lin, t)
    print(f"{t:6.2f} {rg:16.6e} {rn:16.6e} {np.exp(-t) * r0:12.6e}")

T = ng.t_infinity(lin)
wg, wn = ng.gd_trajectory(lin, T), ng.ngd_trajectory(lin, T)
wstar = ng.limit_weights(lin)
print(f"\nat t = t_infinity = {T:.2f}:")
print(f"  paths differ mid-flight: |w_gd(1) - w_ngd(1)|  = "
      f"{np.linalg.norm(ng.gd_trajectory(lin, 1.0) - ng.ngd_trajectory(lin, 1.0)):.4f}")
print(f"  same limit             : |w_gd(T) - w_ngd(T)|  = "
      f"{np.linalg.norm(wg - wn):.2e}")
print(f"  limit interpolates     : |y - u(w*)|           = "
      f"{np.linalg.norm(y - ng.outputs_at(lin, wstar)):.2e}")

print("\ndiscrete natural gradient, eta = 0.5:")
for k in (0, 1, 2, 4, 8):
    wk, uk = ng.ngd_discrete(lin, eta=0.5, k=k)
    print(f"  k = {k}: residual = {np.linalg.norm(y - uk):.6e}, "
          f"(1-eta)^k r0 = {0.5 ** k * r0:.6e}")

w1, u1 = ng.ngd_discrete(lin, eta=1.0, k=1)
print(f"\none step at eta = 1 interpolates: residual = "
      f"{np.linalg.norm(y - u1):.2e}")
