"""Long-horizon energy monitoring, and what a corrupted scheme looks like.

The monitored functional mirrors the scheme's energy estimate: kinetic
part, running damping dissipation, weighted bending energy.  For healthy
data it stays bounded by a data functional times a generous safety factor.
Flipping the sign of the memory weights (fault injection) turns the
history term anti-dissipative and the monitor trips within a few steps.
"""

import dataclasses

import numpy as np

from viscobeam import (
    Grid,
    NonConvergenceError,
    SolverConfig,
    data_functional,
    energy,
    initialize,
    run,
    stability_monitor,
    step,
)
from viscobeam.presets import example2_problem

# ----------------------------------------------------------------------
# 1. Healthy long run: T = 50 with 5000 steps.
# ----------------------------------------------------------------------
problem = example2_problem(T=50.0)
grid = Grid(64)
N = 5000

state, series = run(problem, grid, N)
functional = data_functional(problem, grid, state.dt, N,
                             C0=state.tables.K0, mu0=state.tables.mu0)
print(f"healthy run, T = {problem.T}, N = {N}:")
print(" ", stability_monitor(series.n, series.total, functional))
print(f"  peak total energy {series.total.max():.4e} reached at "
      f"t = {series.t[np.argmax(series.total)]:.2f}; "
      f"final value {series.total[-1]:.4e}")
late = series.total[int(0.9 * len(series.total)):]
print(f"  final-decade spread: max {late.max():.4e}, min {late.min():.4e} "
      "(dissipation has saturated, kinetic and elastic parts decayed)")

# ----------------------------------------------------------------------
# 2. Fault injection: negate the memory weights and watch the monitor trip.
# ----------------------------------------------------------------------
bad = example2_problem(T=2.0)
g8 = Grid(8)
n_bad = 500
bad_state = initialize(bad, g8, bad.T / n_bad)
bad_state.tables = dataclasses.replace(bad_state.tables,
                                       weights=-bad_state.tables.weights)
cfg = SolverConfig()
infos = []
try:
    while bad_state.n <= n_bad:
        infos.append(step(bad_state, cfg))
except NonConvergenceError as exc:
    print(f"\nnegated-weight run: fixed point diverged at step "
          f"{exc.step_index} (expected; the iteration map is no longer "
          "contractive once the state blows up)")
bad_functional = data_functional(bad, g8, bad_state.dt, n_bad,
                                 C0=bad_state.tables.K0,
                                 mu0=bad_state.tables.mu0)
_, _, _, bad_total = energy([i.vel_norm for i in infos],
                            [i.curv_norm for i in infos], bad.damping.g0,
                            bad_state.tables.mu0, bad_state.dt)
print(" ", stability_monitor([i.n for i in infos], bad_total, bad_functional))
