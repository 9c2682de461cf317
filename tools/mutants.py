"""Seeded-defect audit: which tier-1 tests fail under which defect.

    python tools/mutants.py [--json PATH] [DEFECT ...]

Each defect of ``DEFECTS`` is one text substitution in one file of
``src/viscobeam``.  The tool copies ``src/`` into a temporary directory
once per defect, applies the substitution there, which must match
exactly once, and runs the tier-1 suite of this checkout against that
copy through ``PYTHONPATH``, with no plugin and no monkeypatching.  It
first runs the suite against an unchanged copy: if any test fails there,
it prints the failures, no matrix, and exits 2.  A substitution that
does not apply, a copy whose package does not import from where it was
copied, or a pytest run that ends in anything but passes and test
failures is an error (exit 2), never a row of kills.

It prints a kill matrix, one row per defect: the tests failed in all,
those of ``test_acceptance.py`` and ``test_oracle.py``, the solution-level
checks (the tables and the exact-error cells), each in its own column,
then those of every other test file.  The last defect is a control that
moves results only within ``fp_tol``: it is expected to survive every
solution-level check, and the tool exits 1 if one fails under it.
``--json PATH`` writes the failed test IDs of every defect.  With
defect names, only those run.  The whole audit takes about 3.5 minutes
on a 2-vCPU VM, some 20 s per run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLUTION_LEVEL = ("test_acceptance.py", "test_oracle.py")
CONTROL = "control-G-from-last-level"
#: name: (file under src/viscobeam, text, its replacement).
DEFECTS = {
    "weights-x1.02": ("kernel.py", "j2[:-2]]) / dt", "j2[:-2]]) / dt * 1.02"),
    "far-weights-x1.02": ("kernel.py", "j2[:-2]]) / dt",
                          "j2[:-2]]) / dt * np.where(np.arange(n_steps) >= 32, 1.02, 1.0)"),
    "omega0-x1.02": ("kernel.py", "np.concatenate([j2[1:2],", "np.concatenate([1.02 * j2[1:2],"),
    "tail-x1.02": ("kernel.py", "return cls(spec.K0, weights, tail)",
                   "return cls(spec.K0, weights, 1.02 * tail)"),
    "load-one-level-late": ("stepper.py", "np.arange(first, end)[:, None] * state.dt",
                            "np.maximum(np.arange(first, end) - 1, 0)[:, None] * state.dt"),
    "damping-at-half-energy": ("model.py", "return float(self.fn(v))",
                               "return float(self.fn(v / 2))"),
    "mu0-with-1.01-K0": ("kernel.py", "1.0 - self.K0)", "1.0 - 1.01 * self.K0)"),
    "start-without-u1": ("stepper.py", "U1 = U0 + dt * u1", "U1 = U0 + 0.0 * u1"),
    "near-part-one-row-short": (
        "stepper.py", "_BLOCK_LEVELS - n + first:],\n                     "
                      "state._history[:, first - 1:n - 1]",
        "_BLOCK_LEVELS - n + first + 1:],\n                     state._history[:, first:n - 1]"),
    CONTROL: ("stepper.py", "[max(2.0 * g - g_before, 0.0) for g, g_before in "
                            "zip(G_last, G_before)]", "G_last[:]"),
}


class AuditError(RuntimeError):
    """A run that cannot be read as kills."""


def patched(src: Path, defect: str) -> tuple[Path, str]:
    """The file of ``src/viscobeam`` that ``defect`` changes and its text
    with the substitution applied; an AuditError unless it matches once."""
    name, old, new = DEFECTS[defect]
    path = src / "viscobeam" / name
    text = path.read_text()
    if text.count(old) != 1:
        raise AuditError(f"{defect}: its text occurs {text.count(old)} times in {name}")
    return path, text.replace(old, new)


def run_defect(defect: str | None) -> tuple[int, set[str]]:
    """The number of tests and the IDs of those that failed or errored in
    one tier-1 run against a copy of ``src/`` with ``defect`` applied
    (none for the clean run)."""
    with tempfile.TemporaryDirectory() as scratch:
        src, junit = Path(scratch, "src"), Path(scratch, "junit.xml")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if defect is not None:
            path, text = patched(src, defect)
            path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import viscobeam as v; print(v.__file__)"],
                               env=env, capture_output=True, text=True)
        if where.returncode or not Path(where.stdout.strip()).is_relative_to(src):
            raise AuditError(f"{defect}: the package copy does not import: {where.stderr.strip()}")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors", f"--junitxml={junit}", "tests"],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 1) or not junit.exists():
            raise AuditError(f"{defect}: pytest exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}{proc.stderr}")
        cases = list(ET.parse(junit).iter("testcase"))
    failed = {f"{case.get('classname')}::{case.get('name')}" for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    if proc.returncode == 1 and not failed:
        raise AuditError(f"{defect}: pytest exited 1 with no failed test:\n{proc.stdout[-2000:]}")
    print(f"  {defect or 'clean run'}: {len(failed)} of {len(cases)} failed", file=sys.stderr,
          flush=True)
    return len(cases), failed


def file_of(test_id: str) -> str:
    """``test_x.py`` of a junit ID ``tests.test_x[.Class]::name``."""
    return test_id.split("::")[0].split(".")[1] + ".py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("defects", nargs="*", metavar="DEFECT", help=", ".join(DEFECTS))
    parser.add_argument("--json", type=Path, help="write the failed test IDs of each defect here")
    args = parser.parse_args(argv)
    if unknown := set(args.defects) - set(DEFECTS):
        parser.error(f"unknown defects: {', '.join(sorted(unknown))}")
    chosen = args.defects or list(DEFECTS)
    try:
        for defect in chosen:  # every substitution applies before any run
            patched(ROOT / "src", defect)
        if broken := run_defect(None)[1]:
            print("the clean run failed:", *sorted(broken), sep="\n")
            return 2
        kills = {defect: run_defect(defect)[1] for defect in chosen}
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    columns = [*SOLUTION_LEVEL, *sorted({file_of(t) for killed in kills.values()
                                         for t in killed} - set(SOLUTION_LEVEL))]
    heads = ["failed"] + [c.removeprefix("test_").removesuffix(".py") for c in columns]
    width = max(map(len, heads))
    print(f"{'defect':25s}", *(f"{h:>{width}s}" for h in heads))
    control_survives = True
    for defect, killed in kills.items():
        counts = [len(killed)] + [sum(file_of(t) == c for t in killed) for c in columns]
        if defect == CONTROL:
            control_survives = not sum(counts[1:3])
            verdict = ("control: survives every solution-level check, as expected"
                       if control_survives else "CONTROL FAILS A SOLUTION-LEVEL CHECK")
        else:
            verdict = ("caught by a solution-level check" if sum(counts[1:3])
                       else "caught by unit tests only" if killed else "SURVIVES")
        print(f"{defect:25s}", *(f"{n:{width}d}" for n in counts), f" {verdict}")
    if args.json:
        args.json.write_text(json.dumps({d: sorted(k) for d, k in kills.items()}, indent=1) + "\n")
    return 0 if control_survives else 1


if __name__ == "__main__":
    sys.exit(main())
