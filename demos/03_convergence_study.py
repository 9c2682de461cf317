"""Self-convergence ladders: observed first order in time, second in space.

Without exact solutions, each refinement level is compared against the
previous one; the displayed rate is the log2 of consecutive differences.
This reduced ladder reproduces the structure of the full benchmark tables
(run `viscobeam study --preset example1-temporal` etc. for those).
"""

from viscobeam import Grid
from viscobeam.presets import example2_problem
from viscobeam.studies import SPATIAL, TEMPORAL, StudyCell, StudySpec, run_study

# A ladder is given by its first displayed run, a grid and a step count.
# Temporal axis: fix the grid, double the step count.  First order, with
# visibly pre-asymptotic rates at coarse resolution (the memory quadrature
# error carries a sizable constant).
cells = tuple(StudyCell(f"sigma={s}", example2_problem(sigma=s))
              for s in (1.5, 3.0))
temporal = StudySpec(axis=TEMPORAL, cells=cells, levels=4, grid=Grid(32), N=64)
print("temporal refinement (J = 32 fixed):")
print(run_study(temporal).format_table())

# Spatial axis: fix the step count, double the grid.  Second order.
spatial = StudySpec(axis=SPATIAL, cells=cells, levels=4, grid=Grid(16), N=64)
print("\nspatial refinement (N = 64 fixed):")
print(run_study(spatial).format_table())

print("\nrates drift toward 1 (temporal) and 2 (spatial) as the ladders "
      "refine;\nthe full benchmark tables assert these to within +-10% on "
      "errors.")
