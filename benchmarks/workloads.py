"""Benchmark workloads: CLI argv, seeded kernel parameters, output checks.

Each workload is one ``viscobeam`` CLI operation.  A seed selects one of
``POOL`` parameter draws (draw = seed mod POOL).  Draw 0 is the preset
verbatim; the others redraw the kernel's tempering rate (and, for the
oscillatory family, its frequency) inside the family's valid range, close
to the preset values, and leave alpha and the family unchanged.  The draws
reach the program only as ``--set`` overrides, so every draw runs the same
code path at the same size.  Outputs are checked against references stored
per draw in ``references/<workload>.json``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

POOL = 64
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

SOLUTION_RTOL = 1e-8
STUDY_RTOL = 1e-6
ENERGY_RTOL = 1e-8

# Published Example 2 temporal ladder (Table 3): level -> (error, rate) per
# sigma.  Draw 0 must stay inside the acceptance band around it.
TABLE3 = {
    1.5: [(128, 1.5816e-3, None), (256, 9.9110e-4, 0.80),
          (512, 4.8755e-4, 0.90), (1024, 2.5027e-4, 0.96)],
    2.0: [(128, 1.4340e-3, None), (256, 8.5286e-4, 0.75),
          (512, 4.6378e-4, 0.88), (1024, 2.3987e-4, 0.95)],
    2.5: [(128, 1.3409e-3, None), (256, 8.2030e-4, 0.71),
          (512, 4.5227e-4, 0.86), (1024, 2.3552e-4, 0.94)],
    3.0: [(128, 1.2944e-3, None), (256, 8.1102e-4, 0.67),
          (512, 4.5221e-4, 0.84), (1024, 2.3682e-4, 0.93)],
}
TABLE3_ERROR_BAND = 0.10
TABLE3_RATE_BAND = 0.06


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _value(x: float) -> str:
    return repr(round(x, 6))


# -- long-history: solve example1 at J=64, N=8192 --------------------------

def _draw_example1(rng: random.Random) -> list[str]:
    sigma = rng.uniform(1.12, 1.32)
    gamma = rng.uniform(0.8, 1.1)  # below sigma, so 0 <= gamma <= sigma holds
    # example1 ties the forcing's tempering rate to the kernel's
    return [f"kernel.sigma={_value(sigma)}", f"kernel.gamma={_value(gamma)}",
            f"forcing.sigma={_value(sigma)}"]


def _extract_solution(outdir: Path, stdout: str) -> dict:
    with open(outdir / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {"u": [float(u) for _, u in rows]}


def _compare_solution(got: dict, ref: dict) -> list[str]:
    u, r = got["u"], ref["u"]
    if len(u) != len(r):
        return [f"solution has {len(u)} nodes, reference {len(r)}"]
    diff = math.sqrt(sum((a - b) ** 2 for a, b in zip(u, r)))
    scale = math.sqrt(sum(b * b for b in r))
    rel = diff / scale if scale else diff
    if not rel <= SOLUTION_RTOL:
        return [f"solution differs from reference by {rel:.3e} relative L2 "
                f"(limit {SOLUTION_RTOL:g})"]
    return []


# -- study-ladder: study example2-temporal ---------------------------------

def _draw_example2_study(rng: random.Random) -> list[str]:
    sweep = []
    for base in (1.5, 2.0, 2.5, 3.0):
        sigma = round(base * rng.uniform(0.94, 1.06), 6)
        sweep.append({"label": f"sigma={sigma!r}", "kernel.sigma": sigma})
    return ["study.sweep=" + json.dumps(sweep, separators=(",", ":"))]


def _extract_study(outdir: Path, stdout: str) -> dict:
    with open(outdir / "report.json") as fh:
        report = json.load(fh)
    return {"cells": {c["label"]: {"failure": c["failure"],
                                   "levels": [r["level"] for r in c["rows"]],
                                   "errors": [r["error"] for r in c["rows"]],
                                   "rates": [r["rate"] for r in c["rows"]]}
                      for c in report["cells"]}}


def _table3_problems(label: str, cell: dict) -> list[str]:
    sigma = float(label.partition("=")[2])
    rows = TABLE3.get(sigma)
    if rows is None or cell["levels"] != [level for level, _, _ in rows]:
        return []
    out = []
    for (level, err, rate), got_err, got_rate in zip(rows, cell["errors"],
                                                     cell["rates"]):
        if not _rel(got_err, err) <= TABLE3_ERROR_BAND:
            out.append(f"{label} N={level}: error {got_err:.4e} outside "
                       f"Table 3 band around {err:.4e}")
        if rate is not None and not abs(got_rate - rate) <= TABLE3_RATE_BAND:
            out.append(f"{label} N={level}: rate {got_rate:.3f} outside "
                       f"Table 3 band around {rate}")
    return out


def _compare_study(got: dict, ref: dict) -> list[str]:
    cells, ref_cells = got["cells"], ref["cells"]
    if sorted(cells) != sorted(ref_cells):
        return [f"study cells {sorted(cells)} != reference {sorted(ref_cells)}"]
    out = []
    for label, cell in cells.items():
        if cell["failure"] is not None:
            out.append(f"{label}: cell failed: {cell['failure']}")
            continue
        want = ref_cells[label]
        if cell["levels"] != want["levels"]:
            out.append(f"{label}: levels {cell['levels']} != {want['levels']}")
            continue
        for level, e, r in zip(cell["levels"], cell["errors"], want["errors"]):
            if not _rel(e, r) <= STUDY_RTOL:
                out.append(f"{label} N={level}: error {e!r} vs reference {r!r}")
        out += _table3_problems(label, cell)
    return out


# -- long-horizon: stability example2-longtime -----------------------------

def _draw_example2_longtime(rng: random.Random) -> list[str]:
    return [f"kernel.sigma={_value(rng.uniform(1.4, 1.6))}"]


def _extract_stability(outdir: Path, stdout: str) -> dict:
    with open(outdir / "timeseries.csv", newline="") as fh:
        totals = [float(row["total"]) for row in csv.DictReader(fh)]
    verdict = stdout.split(":", 1)[0].strip() if stdout else ""
    return {"verdict": verdict, "max_total": max(totals)}


def _compare_stability(got: dict, ref: dict) -> list[str]:
    out = []
    if got["verdict"] != "PASS":
        out.append(f"stability verdict is {got['verdict']!r}, expected PASS")
    rel = _rel(got["max_total"], ref["max_total"])
    if not rel <= ENERGY_RTOL:
        out.append(f"max total energy {got['max_total']!r} vs reference "
                   f"{ref['max_total']!r} ({rel:.3e} relative)")
    return out


@dataclass(frozen=True)
class Workload:
    """One CLI operation, its seeded overrides and its output check.

    ``steps`` is the number of time steps advanced by all ``run`` calls of
    the operation, worked out from the preset config (it does not depend on
    the draw).  ``history_rows`` is the step count of its longest run: its
    history buffer holds that many rows of 64 nodes, and the host-speed
    calibration uses a matrix of that size.  ``tiny`` holds extra overrides
    and the step count of a small variant used by the benchmark's own tests.
    """

    name: str
    why: str
    argv: tuple[str, ...]
    steps: int
    history_rows: int
    draw: Callable[[random.Random], list[str]]
    extract: Callable[[Path, str], dict]
    compare: Callable[[dict, dict], list[str]]
    tiny: tuple[tuple[str, ...], int]

    def overrides(self, seed: int) -> list[str]:
        """``--set`` values for a seed; draw 0 is the preset verbatim."""
        draw = seed % POOL
        return [] if draw == 0 else self.draw(random.Random(draw))

    def cli_args(self, seed: int, outdir: Path) -> list[str]:
        args = list(self.argv)
        for item in self.overrides(seed):
            args += ["--set", item]
        return args + ["-o", str(outdir)]

    def shrunk(self) -> "Workload":
        """The tiny variant: same command and checks, a few steps only."""
        extra, steps = self.tiny
        argv = list(self.argv)
        for item in extra:
            argv += ["--set", item]
        return replace(self, argv=tuple(argv), steps=steps)

    def check(self, outdir: Path, stdout: str, reference: dict) -> list[str]:
        """Problems with an operation's outputs; empty when correct."""
        try:
            got = self.extract(outdir, stdout)
        except (OSError, ValueError, KeyError) as exc:
            return [f"cannot read outputs: {exc!r}"]
        return self.compare(got, reference)


# Steps of the study: 4 sweep cells, each running N = 64 * 2**i, i = 0..4
# (the anchor run plus the four displayed levels 128..1024).
_STUDY_STEPS = 4 * sum(64 * 2**i for i in range(5))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="long-history",
        why="solve example1 at J=64, N=8192: the direct O(N^2 J) history "
            "convolution dominates run time",
        argv=("solve", "--preset", "example1",
              "--set", "grid.J=64", "--set", "time.N=8192"),
        steps=8192,
        history_rows=8192,
        draw=_draw_example1,
        extract=_extract_solution,
        compare=_compare_solution,
        tiny=(("grid.J=16", "time.N=64"), 64),
    ),
    Workload(
        name="study-ladder",
        why="study example2-temporal: 20 short runs where per-step solve and "
            "damping overhead and kernel-table builds dominate, not history",
        argv=("study", "--preset", "example2-temporal"),
        steps=_STUDY_STEPS,
        history_rows=1024,
        draw=_draw_example2_study,
        extract=_extract_study,
        compare=_compare_study,
        # time.N=8 with 2 levels runs N = 4, 8, 16 for each of 4 cells
        tiny=(("grid.J=8", "time.N=8", "study.levels=2"), 4 * (4 + 8 + 16)),
    ),
    Workload(
        name="long-horizon",
        why="stability example2-longtime: T=50 with a decayed memory tail and "
            "per-step energy recording; the only workload using diagnostics",
        argv=("stability", "--preset", "example2-longtime"),
        steps=5000,
        history_rows=5000,
        draw=_draw_example2_longtime,
        extract=_extract_stability,
        compare=_compare_stability,
        tiny=(("grid.J=16", "time.N=100", "time.T=2.0"), 100),
    ),
)}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(workload: Workload, seed: int) -> dict:
    """Stored reference for a seed's draw; checks the draw is unchanged."""
    with open(reference_path(workload.name)) as fh:
        doc = json.load(fh)
    entry = doc["draws"][str(seed % POOL)]
    if entry["set"] != workload.overrides(seed):
        raise ValueError(f"{workload.name}: stored overrides {entry['set']} do "
                         f"not match this draw {workload.overrides(seed)}")
    return entry["reference"]
