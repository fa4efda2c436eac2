"""Compare the limiting output kernel with its finite-width counterparts.

Three views of the same object: the closed-form arc-cosine kernel, the
Gram matrix J J^T of an actual finite network, and a Monte Carlo average
over activation patterns.  As width grows the finite Gram concentrates
around the limit, which is what keeps its smallest eigenvalue bounded
away from zero during training.
"""
import numpy as np

import natgrad as ng

ds = ng.synth_sphere(n=16, d=8, seed=3)

Ginf = ng.limiting_gram(ds)
lam_inf = np.linalg.eigvalsh(Ginf)[0]
print(f"limiting kernel: lambda_min = {lam_inf:.6f}, diag = {Ginf[0, 0]}")

Gmc, se = ng.mc_limiting_gram(ds, samples=200_000, seed=0)
print(f"monte carlo    : max entry gap vs closed form = "
      f"{np.abs(Gmc - Ginf).max():.2e} (max SE {se.max():.2e})")

print("\nfinite networks:")
print(f"{'width':>8} {'lambda_min':>12} {'max |G - Ginf|':>16}")
for m in (64, 256, 1024, 4096, 16384):
    params = ng.init_network(m=m, d=8, nu=1.0, seed=7)
    G = ng.finite_gram(ng.jacobian(params, ds.X))
    gap = np.abs(G - Ginf).max()
    print(f"{m:8d} {ng.min_eig(G):12.6f} {gap:16.2e}")

# eigenvalue bracket for an entrywise product needs both factors PD,
# so take a square full-rank subset of the inputs
sub = ng.Dataset(ds.X[:8], ds.y[:8])
lo, hi = ng.hadamard_bounds(sub.X @ sub.X.T, ng.limiting_gram(sub))
eig = np.linalg.eigvalsh((sub.X @ sub.X.T) * ng.limiting_gram(sub))
print(f"\nhadamard bracket on an 8-point subset: [{lo:.4f}, {hi:.4f}], "
      f"actual eigenvalues in [{eig[0]:.4f}, {eig[-1]:.4f}]")
