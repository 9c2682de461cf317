"""Tour of the memory-kernel layer: densities, tails, quadrature weights.

The solver never touches the kernel density directly; everything flows
through the integrated tail K and the product-integration weights derived
from its second antiderivative.  This script walks through those objects
for the two kernel families and shows the one surprise of the oscillatory
family: the tail can cross zero, dragging far weights negative.
"""

import numpy as np

from viscobeam import (
    KernelSpec,
    KernelTables,
    NON_OSCILLATORY,
    OSCILLATORY,
    beta_eval,
    kernel_tail,
)

# ----------------------------------------------------------------------
# 1. Densities.  The power-law factor t**(alpha-1) is singular at zero for
#    alpha < 1; exponential tempering makes everything integrable.
# ----------------------------------------------------------------------
osc = KernelSpec(family=OSCILLATORY, sigma=1.2, gamma=1.0, alpha=0.5)
non = KernelSpec(family=NON_OSCILLATORY, sigma=1.5, gamma=0.0, alpha=0.5)

ts = np.array([0.05, 0.25, 1.0, 4.0])
print("density values beta(t):")
print("  t       oscillatory   non-oscillatory")
for t in ts:
    print(f"  {t:<6}  {beta_eval(osc, t):>12.6f}  {beta_eval(non, t):>12.6f}")

# ----------------------------------------------------------------------
# 2. Integrated tails.  K(0) is the total memory mass; the scheme's
#    transformed elastic coefficient is mu0 = 1 - K(0), positive because
#    the tempering rate sigma exceeds 1.
# ----------------------------------------------------------------------
print("\ntail mass and elastic coefficient:")
for spec in (osc, non):
    print(f"  {spec.family:<16} K(0) = {kernel_tail(spec, 0.0):.6f}   "
          f"mu0 = {1.0 - kernel_tail(spec, 0.0):.6f}")

# ----------------------------------------------------------------------
# 3. Weights.  The averaged product-integration rule reduces to second
#    differences of the tail's second antiderivative; each weight is a
#    local average of K around its node, so weights inherit K's sign.
# ----------------------------------------------------------------------
n = 64
w = KernelTables.build(non, 1.0 / n, n).weights
print(f"\nnon-oscillatory weights (N = {n}):")
print(f"  omega_0 = {w[0]:.6e} (half panel), omega_1 = {w[1]:.6e}, "
      f"min = {w.min():.6e} > 0")

strong = KernelSpec(family=OSCILLATORY, sigma=2.0, gamma=2.0, alpha=1.0)
w2 = KernelTables.build(strong, 1.0 / n, n).weights
t_cross = np.pi / 8
print(f"\nstrongly oscillatory kernel (sigma = gamma = 2, alpha = 1):")
print(f"  closed-form tail exp(-2t)(cos 2t - sin 2t)/4 crosses zero at "
      f"t = pi/8 ~ {t_cross:.3f}")
print(f"  K(0.5) = {kernel_tail(strong, 0.5):.6f} < 0  ->  "
      f"{np.sum(w2 < 0)} of {n} weights negative, min = {w2.min():.3e}")
print("  (the solver is unaffected; only the positivity-based energy bound "
      "loses its hypothesis)")

# ----------------------------------------------------------------------
# 4. Tables bundle everything a run needs, built once per simulation.
# ----------------------------------------------------------------------
tables = KernelTables.build(osc, dt=1.0 / 256, n_steps=256)
print(f"\nKernelTables for the oscillatory kernel at dt = 1/256:")
print(f"  K0 = C0 = {tables.K0:.6f} (certified running maximum of the tail), "
      f"mu0 = {tables.mu0:.6f}")
print(f"  {len(tables.weights)} weights, tail stored at "
      f"{len(tables.tail)} grid times")
