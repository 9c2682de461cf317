"""Self-convergence studies: error ladders, observed rates, reports.

No exact solutions exist for these problems, so errors are estimated by
comparing a run against the same scheme on a refined mesh.  In a ladder
each displayed level reports its distance at t = T to the *previous*
(coarser) level.  Temporal rows measure in the fixed grid's norm; spatial
rows compare coarse node j against fine node 2j (the grids nest exactly)
and measure in the row's own (finer) grid norm, that is the coarse grid's
norm divided by sqrt(2).

A :class:`StudySpec` gives a ladder by its first displayed run, a grid
and a step count: the temporal axis doubles the step count on that grid,
the spatial axis doubles J at that step count.  A ladder of L levels
costs L + 1 runs per cell: the half-coarse anchor and one per displayed
level, each row differencing consecutive final solutions.
:func:`run_study` steps the runs of one level, one per cell, in lockstep
as a single batch (:func:`~viscobeam.stepper.run_batch`); every cell
still gets the bits of its own single runs.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .grid_ops import Grid, norm
from .kernel import ConfigurationError, require_integer
from .model import ProblemSpec
from .stepper import SolverConfig, run_batch

TEMPORAL = "temporal"
SPATIAL = "spatial"


def rate(coarse_error: float, fine_error: float) -> float | None:
    """Observed order log2(coarse/fine); None when degenerate, that is when
    either error is not positive or not finite."""
    if not (0.0 < coarse_error < math.inf and 0.0 < fine_error < math.inf):
        return None
    return math.log2(coarse_error / fine_error)


@dataclass(frozen=True)
class StudyCell:
    """One sweep cell: a label (e.g. 'gamma=0.5') and its problem."""

    label: str
    problem: ProblemSpec


@dataclass(frozen=True)
class StudySpec:
    """Refinement-ladder description: its first displayed run, on ``grid``
    with ``N`` steps, whose step count (temporal) or J (spatial) doubles
    ``levels`` - 1 times while the other stays fixed.  A preceding
    half-coarse run anchors the first row's error, so a temporal base N
    must be even and a spatial base J even with J/2 >= 4; the grid itself
    has checked J >= 4.  Both counts are integers, with at least 2 levels
    and 1 step.
    """

    axis: str
    cells: tuple[StudyCell, ...]
    levels: int
    grid: Grid
    N: int

    def __post_init__(self):
        if self.axis not in (TEMPORAL, SPATIAL):
            raise ConfigurationError(f"unknown study axis {self.axis!r}")
        require_integer(self.levels, "study levels", 2)
        require_integer(self.N, "step count N", 1)
        if self.axis == TEMPORAL:
            if self.N % 2:
                raise ConfigurationError("temporal studies need an even base step count")
        elif self.grid.J % 2 or self.grid.J // 2 < 4:
            raise ConfigurationError(
                "spatial studies need an even base J with J/2 >= 4 so "
                "grids nest down to the anchor level")

    def display_levels(self) -> list[int]:
        base = self.N if self.axis == TEMPORAL else self.grid.J
        return [base * 2**i for i in range(self.levels)]


@dataclass(frozen=True)
class StudyRow:
    level: int
    refinement: float  # dt or h at this level
    error: float
    rate: float | None


@dataclass(frozen=True)
class CellResult:
    label: str
    failure: str | None = None
    rows: tuple[StudyRow, ...] = ()


@dataclass(frozen=True)
class ConvergenceReport:
    """Study results.  The field order here, in CellResult and in StudyRow
    is the key order of ``report.json``."""

    axis: str
    metadata: dict
    cells: tuple[CellResult, ...]

    def to_json(self, path) -> None:
        """Write the report to ``path`` as JSON indented by 2, with a final
        newline."""
        with open(path, "w") as fh:
            fh.write(json.dumps(asdict(self), indent=2) + "\n")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell", "axis", "level", "refinement", "error", "rate"])
            for c in self.cells:
                if c.failure is not None:
                    writer.writerow([c.label, self.axis, "", "", "", f"error: {c.failure}"])
                    continue
                for r in c.rows:
                    writer.writerow([c.label, self.axis, r.level,
                                     repr(r.refinement), repr(r.error),
                                     "*" if r.rate is None else f"{r.rate:.4f}"])

    def format_table(self) -> str:
        lines = []
        for c in self.cells:
            lines.append(f"[{c.label}]")
            if c.failure is not None:
                lines.append(f"  failed: {c.failure}")
                continue
            head = "N" if self.axis == TEMPORAL else "J"
            lines.append(f"  {head:>6}  {'error':>12}  rate")
            for r in c.rows:
                rt = "*" if r.rate is None else f"{r.rate:.2f}"
                lines.append(f"  {r.level:>6}  {r.error:>12.4e}  {rt}")
        return "\n".join(lines)


def _cell_rows(study: StudySpec, cell: StudyCell, levels: list[int],
               finals: list[np.ndarray]) -> tuple[StudyRow, ...]:
    # ``finals`` holds the final solution at each level, coarsest first.
    if study.axis == TEMPORAL:
        errors = [norm(c - f, study.grid) for c, f in zip(finals, finals[1:])]
        refinements = [cell.problem.T / n for n in levels[1:]]
    else:
        errors = [norm(c - f[1::2], Grid(J)) / math.sqrt(2.0)
                  for J, c, f in zip(levels, finals, finals[1:])]
        refinements = [1.0 / J for J in levels[1:]]
    rates = [None] + [rate(c, f) for c, f in zip(errors, errors[1:])]
    return tuple(StudyRow(level=level, refinement=h, error=err, rate=r)
                 for level, h, err, r in zip(levels[1:], refinements, errors, rates))


def run_study(study: StudySpec, config: SolverConfig | None = None,
              metadata: dict | None = None) -> ConvergenceReport:
    """Execute the refinement ladder for every sweep cell.

    Each level (the anchor, then every displayed level) runs all cells as
    one :func:`run_batch`.  A cell whose run fails keeps that failure, from
    its coarsest failing level, and leaves the later batches; the failure
    is captured in the report without aborting the other cells.  Reports
    are deterministic apart from the timestamp.
    """
    levels = [study.display_levels()[0] // 2] + study.display_levels()
    results = [[] for _ in study.cells]  # final solutions per level, or the failure
    for level in levels:
        grid, N = (study.grid, level) if study.axis == TEMPORAL else (Grid(level), study.N)
        live = [i for i, r in enumerate(results) if isinstance(r, list)]
        # Only the final solutions outlive the batch, so that no two levels'
        # histories are held at once.
        finals = [s if isinstance(s, Exception) else s.U_prev for s in
                  run_batch([study.cells[i].problem for i in live], grid, N, config)]
        for i, final in zip(live, finals):
            results[i] = final if isinstance(final, Exception) else results[i] + [final]
    cells = tuple(CellResult(cell.label, failure=str(r)) if isinstance(r, Exception)
                  else CellResult(cell.label, rows=_cell_rows(study, cell, levels, r))
                  for cell, r in zip(study.cells, results))
    meta = {
        "axis": study.axis,
        "levels": study.display_levels(),
        "fixed": {"J": study.grid.J} if study.axis == TEMPORAL else {"N": study.N},
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    if metadata:
        meta.update(metadata)
    return ConvergenceReport(axis=study.axis, metadata=meta, cells=cells)
