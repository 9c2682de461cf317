"""Solve one forced beam problem and inspect the per-step diagnostics.

The benchmark: hinged beam, initial shape sin(pi x) kicked with velocity
sin(2 pi x), tempered oscillatory memory, damping coefficient 1 + v where
v is the instantaneous discrete bending energy, and a decaying forcing.
Writes solution.csv / timeseries.csv next to this script and, when
matplotlib is importable, a small overview figure.
"""

from pathlib import Path

import numpy as np

from viscobeam import Grid, SolverConfig, initialize, run, step, write_solution_csv
from viscobeam.presets import example1_problem

out = Path(__file__).resolve().parent

problem = example1_problem(sigma=1.2, gamma=1.0, alpha=0.5)
grid = Grid(64)
N = 256

state, series = run(problem, grid, N)

print(f"solved {N} implicit steps on {grid.J} subintervals "
       f"(dt = {state.dt:g}, h = {grid.h:g})")
print(f"fixed-point iterations per step: min {series.fp_iters[1:].min()}, "
      f"max {series.fp_iters[1:].max()}, "
      f"mean {series.fp_iters[1:].mean():.2f}")

# The damping coefficient tracks the bending energy: large while the beam
# is sharply curved, settling toward its floor g0 = 1 as motion decays.
print("\n  t      |du/dt|      |u_xx|      damping   total energy")
for k in range(0, N, N // 8):
    print(f"  {series.t[k]:<5.2f}  {series.vel_norm[k]:<10.4e} "
          f"{series.curv_norm[k]:<10.4e}  {series.damping[k]:<8.4f} "
          f"{series.total[k]:.4e}")

# Deflection snapshots: drive the stepper level by level and keep every
# 64th level.  The solver is deterministic, so the last one is bit for bit
# the final level of the run above.
snap = initialize(problem, grid, N)
snapshots = {0: snap.U0}
while snap.n <= N:
    step(snap, SolverConfig())
    if (snap.n - 1) % 64 == 0:
        snapshots[snap.n - 1] = snap.U_prev
print("\n  t      max |u|")
for n_snap, U in snapshots.items():
    print(f"  {n_snap * state.dt:<5.2f}  {np.max(np.abs(U)):.4e}")
assert np.array_equal(snapshots[N], state.U_prev)

series.to_csv(out / "timeseries.csv")
write_solution_csv(out / "solution.csv", grid, state.U_prev)
print(f"\nwrote {out / 'solution.csv'} and {out / 'timeseries.csv'}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the overview figure")
else:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.2))
    xs = np.concatenate([[0.0], grid.x, [1.0]])
    for n_snap, U in snapshots.items():
        ax1.plot(xs, np.concatenate([[0.0], U, [0.0]]),
                 label=f"t = {n_snap * state.dt:.2f}")
    ax1.set_xlabel("x")
    ax1.set_ylabel("deflection")
    ax1.legend(fontsize=7)
    ax2.semilogy(series.t, series.total, label="total")
    ax2.semilogy(series.t, series.kinetic, label="kinetic")
    ax2.semilogy(series.t, series.elastic, label="elastic")
    ax2.set_xlabel("t")
    ax2.set_ylabel("energy")
    ax2.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(out / "single_simulation.png", dpi=130)
    print(f"wrote {out / 'single_simulation.png'}")
