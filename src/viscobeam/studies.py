"""Self-convergence studies: error ladders, observed rates, reports.

No exact solutions exist for these problems, so errors are estimated by
comparing a run against the same scheme on a refined mesh.  Two layouts
are used:

* the standalone metrics :func:`temporal_error` / :func:`spatial_error`
  compare a run at (dt, h) against (dt/2, h) resp. (dt, h/2), measured in
  the coarse grid's norm;

* :func:`run_study` builds the table layout, where each displayed level
  reports its distance to the *previous* (coarser) level and spatial rows
  measure in the row's own (finer) grid norm, i.e.
  ``spatial_error(J/2, N) / sqrt(2)`` on the row labeled J.  Temporal rows
  likewise equal ``temporal_error(N/2)`` on the row labeled N.

A ladder of L levels costs L + 1 runs per cell: the half-coarse anchor
and one per displayed level, each row differencing consecutive final
solutions.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import __version__
from .grid_ops import Grid, norm
from .model import ProblemSpec
from .stepper import SolverConfig, run

TEMPORAL = "temporal"
SPATIAL = "spatial"


def _final_solution(problem: ProblemSpec, J: int, N: int,
                    config: SolverConfig | None) -> np.ndarray:
    state, _ = run(problem, Grid(J), N, config)
    return state.U_prev


def temporal_error(problem: ProblemSpec, grid: Grid, N: int,
                   config: SolverConfig | None = None) -> float:
    """Discrete L2 distance at t = T between the runs with N and 2N steps."""
    coarse = _final_solution(problem, grid.J, N, config)
    return norm(coarse - _final_solution(problem, grid.J, 2 * N, config), grid)


def spatial_error(problem: ProblemSpec, J: int, N: int,
                  config: SolverConfig | None = None) -> float:
    """Distance at t = T between grids J and 2J at fixed step count.

    Compares coarse node j against fine node 2j (the grids nest exactly)
    and measures in the coarse grid's norm.
    """
    coarse = _final_solution(problem, J, N, config)
    fine = _final_solution(problem, 2 * J, N, config)
    return norm(coarse - fine[1::2], Grid(J))


def rate(coarse_error: float, fine_error: float) -> float | None:
    """Observed order log2(coarse/fine); None when degenerate."""
    if coarse_error <= 0.0 or fine_error <= 0.0:
        return None
    return math.log2(coarse_error / fine_error)


@dataclass(frozen=True)
class StudyCell:
    """One sweep cell: a label (e.g. 'gamma=0.5') and its problem."""

    label: str
    problem: ProblemSpec


@dataclass(frozen=True)
class StudySpec:
    """Refinement-ladder description.

    ``level0`` is the first displayed level (N for temporal, J for
    spatial); displayed levels double ``levels`` - 1 times.  The fixed
    resolution of the other axis is ``J`` (temporal) or ``N`` (spatial).
    A preceding half-coarse run anchors the first row's error.
    """

    axis: str
    cells: tuple[StudyCell, ...]
    level0: int
    levels: int
    J: int = 0
    N: int = 0

    def __post_init__(self):
        if self.axis not in (TEMPORAL, SPATIAL):
            raise ValueError(f"unknown study axis {self.axis!r}")
        if self.levels < 2:
            raise ValueError("a study needs at least two refinement levels")
        if self.axis == TEMPORAL:
            if self.level0 < 2 or self.level0 % 2:
                raise ValueError("temporal studies need an even base step count")
            if self.J < 4:
                raise ValueError("temporal studies need a fixed grid J >= 4")
        else:
            if self.level0 % 2 or self.level0 // 2 < 4:
                raise ValueError(
                    "spatial studies need an even base J with J/2 >= 4 so "
                    "grids nest down to the anchor level")
            if self.N < 1:
                raise ValueError("spatial studies need a fixed step count N")

    def display_levels(self) -> list[int]:
        return [self.level0 * 2**i for i in range(self.levels)]


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

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

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


def _cell_rows(study: StudySpec, cell: StudyCell,
               config: SolverConfig | None) -> tuple[StudyRow, ...]:
    # The anchor and every displayed level, coarsest first.
    levels = [study.level0 // 2] + study.display_levels()
    if study.axis == TEMPORAL:
        grid = Grid(study.J)
        finals = [_final_solution(cell.problem, study.J, n, config) for n in levels]
        errors = [norm(c - f, grid) for c, f in zip(finals, finals[1:])]
        refinements = [cell.problem.T / n for n in levels[1:]]
    else:
        finals = [_final_solution(cell.problem, J, study.N, config) for J in levels]
        errors = [norm(c - f[1::2], Grid(J)) / math.sqrt(2.0)
                  for J, c, f in zip(levels, finals, finals[1:])]
        refinements = [1.0 / J for J in levels[1:]]
    rates = [None] + [rate(c, f) for c, f in zip(errors, errors[1:])]
    return tuple(StudyRow(level=level, refinement=h, error=err, rate=r)
                 for level, h, err, r in zip(levels[1:], refinements, errors, rates))


def run_study(study: StudySpec, config: SolverConfig | None = None,
              metadata: dict | None = None) -> ConvergenceReport:
    """Execute the refinement ladder for every sweep cell.

    Cell failures are captured in the report without aborting the other
    cells.  Reports are deterministic apart from the timestamp.
    """
    cells = []
    for cell in study.cells:
        try:
            rows = _cell_rows(study, cell, config)
        except Exception as exc:
            cells.append(CellResult(label=cell.label, failure=str(exc)))
        else:
            cells.append(CellResult(label=cell.label, rows=rows))
    meta = {
        "axis": study.axis,
        "levels": study.display_levels(),
        "fixed": {"J": study.J} if study.axis == TEMPORAL else {"N": study.N},
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    if metadata:
        meta.update(metadata)
    return ConvergenceReport(axis=study.axis, metadata=meta, cells=tuple(cells))
