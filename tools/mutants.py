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
then those of every other test file.  The numeric defects of ``NUMERIC``
move the scheme's results, and each must fail a solution-level check;
the last of them is a control that moves results only within ``fp_tol``
and must fail none.  The contract defects of ``CONTRACT``, a second block
of rows, each break one rule of the input, output or resource contract
(a check of bad input, an error's type or exit code, a file's format, a
memory bound, an iteration count) and leave the solution of a valid run
as it is, up to roundoff or ``fp_tol``; each must fail at least one
test.  Contract defects whose failed tests all failed under other
defects too were left out when the list was drawn up, to keep the audit
short.  The tool exits 1 when a defect breaks its rule.  After the
matrix, one line per test file gives the tests that fail under at least
one defect, over all the clean run's tests of that file.  ``--json
PATH`` writes the failed test IDs of every defect.  With defect names,
only those run.  The whole audit takes about
24 minutes on a 2-vCPU VM, some 17 s per run.
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
NUMERIC = {
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
    "moments-summed-per-moment": ("kernel.py", "np.cumsum(sums, axis=1)", "np.cumsum(sums, axis=0)"),
    "no-memory-has-memory": ("kernel.py", "return self.family != NO_MEMORY", "return True"),
    "eigenvalues-off-grid": ("grid_ops.py", "np.sin(0.5 * np.pi * k / grid.J)",
                             "np.sin(0.5 * np.pi * k / (grid.J + 1))"),
    "sine-transform-x1.01": ("grid_ops.py", "return -math.sqrt(2.0 / (n + 1))",
                             "return -1.01 * math.sqrt(2.0 / (n + 1))"),
    "nodes-one-left": ("grid_ops.py", "self.h * np.arange(1, self.J)",
                       "self.h * np.arange(0, self.J - 1)"),
    "norm-weighted-by-h2": ("grid_ops.py", "math.sqrt(grid.h * (W @ W))",
                            "math.sqrt(grid.h ** 2 * (W @ W))"),
    "K0-x1.01": ("kernel.py", "return float(((self.sigma", "return 1.01 * float(((self.sigma"),
    "no-memory-moments": ("kernel.py", "    if spec.family == NO_MEMORY:", "    if False:"),
    "bump-one-power-up": ("config.py", "* (1.0 - np.asarray(x, dtype=float))**power",
                          "* (1.0 - np.asarray(x, dtype=float))**(power + 1)"),
    CONTROL: ("stepper.py", "[max(2.0 * g - g_before, 0.0) for g, g_before in "
                            "zip(G_last, G_before)]", "G_last[:]"),
}
CONTRACT = {
    "real-accepts-bool": ("kernel.py", "if isinstance(value, bool) or not isinstance(value, "
                          "numbers.Real):", "if not isinstance(value, numbers.Real):"),
    "integer-ignores-least": ("kernel.py", "if value < least:", "if False:"),
    "number-skips-finiteness": ("config.py", "if not integral and math.isfinite(number):",
                                "if not integral:"),
    "numerical-exits-1": ("cli.py", "return _error(EXIT_NUMERICAL, str(exc))",
                          "return _error(1, str(exc))"),
    "overrides-share-values": ("config.py", "node[keys[-1]] = copy.deepcopy(value)",
                               "node[keys[-1]] = value"),
    "config-with-preset": ("cli.py", "source = p.add_mutually_exclusive_group()", "source = p"),
    "boundary-tol-x1e6": ("model.py", "_BOUNDARY_TOL = 1e-12", "_BOUNDARY_TOL = 1e-6"),
    "csv-lf-line-ends": ("stepper.py", '",".join(row) + "\\r\\n"', '",".join(row) + "\\n"'),
    "monitor-passes-equal": ("diagnostics.py", "~(total <= bound)", "~(total < bound)"),
    "monitor-passes-nan": ("diagnostics.py", "~(total <= bound)", "total > bound"),
    "monitor-skips-length": ("diagnostics.py", "if len(steps) != total.size:", "if False:"),
    "csv-skips-length": ("stepper.py", "if len({len(a) for a in arrays}) > 1:", "if False:"),
    "rate-takes-nonfinite": ("studies.py", "0.0 < coarse_error < math.inf and 0.0 < fine_error "
                             "< math.inf", "0.0 < coarse_error and 0.0 < fine_error"),
    "probe-skips-shape": ("model.py", "if values.shape != probe.shape:", "if False:"),
    # One rule each of the contract, as the config, the CLI and the library
    # entries state it.
    "real-accepts-strings": ("kernel.py", "if isinstance(value, bool) or not isinstance(value, "
                             "numbers.Real):", "if isinstance(value, bool):"),
    "integer-accepts-floats": ("kernel.py", "if isinstance(value, bool) or not isinstance("
                               "value, numbers.Integral):", "if isinstance(value, bool):"),
    "mapping-unchecked": ("config.py", "if not isinstance(value, dict):", "if False:"),
    "registry-name-unchecked": ("config.py", "if not isinstance(choice, str) or choice not in "
                                "builders:", "if False:"),
    "unreadable-config-raw": ("config.py", 'raise ConfigurationError(f"cannot read config file '
                              '{path}: {exc}")', "raise"),
    "json-error-raw": ("config.py", 'raise ConfigurationError(f"config file {path} is not valid '
                       'JSON: {exc}")', "raise"),
    "cell-error-unnamed": ("config.py", 'raise ConfigurationError(f"study.sweep[{i}] ({label}): '
                           '{exc}")', "raise"),
    "unknown-preset-raw": ("presets.py", "if name not in _PRESETS:", "if False:"),
    "no-source-unchecked": ("cli.py", "elif args.config:", "elif True:"),
    "safety-error-untyped": ("diagnostics.py", 'raise ConfigurationError(f"safety factor must',
                             'raise ValueError(f"safety factor must'),
    "safety-range-unchecked": ("diagnostics.py", "if not 1.0 <= safety < np.inf:", "if False:"),
    "functional-finiteness": ("diagnostics.py", "if not np.isfinite(data_functional):",
                              "if False:"),
    "family-unchecked": ("kernel.py", "if self.family not in _FAMILIES:", "if False:"),
    "sigma-unchecked": ("kernel.py", "if self.has_memory and not self.sigma > 1.0:", "if False:"),
    "gamma-range-unchecked": ("kernel.py", "if not 0.0 <= self.gamma <= self.sigma:", "if False:"),
    "oscillatory-alpha": ("kernel.py", "if self.alpha not in (0.5, 1.0):", "if False:"),
    "alpha-range-unchecked": ("kernel.py", "if not 0.0 < self.alpha <= 1.0:", "if False:"),
    "stray-gamma-accepted": ("kernel.py", "if self.gamma != 0.0:", "if False:"),
    "tables-step-unchecked": ("kernel.py", "if not 0.0 < dt < math.inf:", "if False:"),
    "tables-overflow": ("kernel.py", "if not np.isfinite(weights).all():", "if False:"),
    "g0-unchecked": ("model.py", "if not d.g0 > 0.0:", "if False:"),
    "horizon-unchecked": ("model.py", "if not 0.0 < self.T < math.inf:", "if False:"),
    "damping-raise-unreported": ("model.py", 'errs.append(f"damping function raised on sampled '
                                 'input: {exc!r}")', "raise"),
    "nonfinite-damping-passes": ("model.py", "nonfinite = vs[~np.isfinite(gv)]",
                                 "nonfinite = vs[:0]"),
    "lower-bound-unchecked": ("model.py", "if d.g0 > 0.0 and np.min(gv) < d.g0 * (1.0 - "
                              "_ROUNDOFF):", "if False:"),
    "lipschitz-unchecked": ("model.py", "if np.any(np.abs(np.diff(gv)) > d.lipschitz * "
                            "np.diff(vs) + slack):", "if False:"),
    "datum-raise-unreported": ("model.py", 'errs.append(f"initial data {name} raised on the '
                               'probe grid: {exc!r}")', "raise"),
    "boundary-unchecked": ("model.py", "if np.any(ends > _BOUNDARY_TOL * max(1.0, "
                           "float(np.max(values)))):", "if False:"),
    "norm-shape-unchecked": ("grid_ops.py", "if W.shape != (grid.n_interior,):", "if False:"),
    "solver-tol-unchecked": ("stepper.py", "if not 0.0 < self.fp_tol < math.inf:", "if False:"),
    "step-past-end": ("stepper.py", "if state.n > state.n_steps:", "if False:"),
    "first-iterate-rejected": ("stepper.py", "if not it:", "if it < 2:"),
    "nonfinite-G-unreported": ("stepper.py", "if not math.isfinite(sum(G)) and (i := "
                               "_first_nonfinite(G)) is not None:", "if False:"),
    "rule-node-one-ulp-off": ("kernel.py", "0.06405689286260563", "0.06405689286260564"),
    "moments-evaluated-twice": ("kernel.py", "tail, m1, m2 = _grid_moments(spec, ts)",
                                "tail, m1, m2 = _grid_moments(spec, ts)[:2] + "
                                "_grid_moments(spec, ts)[2:]"),
    "zero-load-as-array": ("config.py", '"zero": lambda: lambda x, t: 0.0,',
                           '"zero": lambda: lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),'),
    "constant-law-not-flat": ("model.py", "g0=c, lipschitz=0.0)", "g0=c, lipschitz=1.0)"),
    "integer-accepts-bool": ("kernel.py", "if isinstance(value, bool) or not isinstance("
                             "value, numbers.Integral):", "if not isinstance(value, numbers.Integral):"),
    "overrides-ignored": ("cli.py", "return apply_overrides(cfg, args.set or [])", "return cfg"),
    "overrides-edit-the-base": ("config.py", "out = copy.deepcopy(config)", "out = config"),
    "monitor-never-fails": ("diagnostics.py", "if over.size else None", "if False else None"),
    "safety-divides": ("diagnostics.py", "bound = safety * data_functional",
                       "bound = data_functional / safety"),
    "total-omits-elastic": ("diagnostics.py", "kinetic + dissipated + elastic",
                            "kinetic + dissipated"),
    "dissipation-not-summed": ("diagnostics.py", "np.cumsum(g0 * dt * v[1:] ** 2)",
                               "g0 * dt * v[1:] ** 2"),
    "rate-inverted": ("studies.py", "math.log2(coarse_error / fine_error)",
                      "math.log2(fine_error / coarse_error)"),
    "ladder-one-level-up": ("studies.py", "[base * 2**i for i", "[base * 2**(i + 1) for i"),
    "one-table-restacked": ("kernel.py", "return tables[0] if len(tables) == 1 else cls(",
                            "return cls("),
    "panel-block-x64": ("kernel.py", "_PANEL_BLOCK = 512", "_PANEL_BLOCK = 32768"),
    "csv-block-x64": ("stepper.py", "_CSV_BLOCK_ROWS = 64", "_CSV_BLOCK_ROWS = 4096"),
}
DEFECTS = {**NUMERIC, **CONTRACT}


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


def run_defect(defect: str | None) -> tuple[set[str], set[str]]:
    """The IDs of all tests and of those that failed or errored in one
    tier-1 run against a copy of ``src/`` with ``defect`` applied
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
    ids = {case: f"{case.get('classname')}::{case.get('name')}" for case in cases}
    failed = {ids[case] for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    if proc.returncode == 1 and not failed:
        raise AuditError(f"{defect}: pytest exited 1 with no failed test:\n{proc.stdout[-2000:]}")
    print(f"  {defect or 'clean run'}: {len(failed)} of {len(cases)} failed", file=sys.stderr,
          flush=True)
    return set(ids.values()), failed


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
        tests, broken = run_defect(None)
        if broken:
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
    held, first_contract = True, next((d for d in chosen if d in CONTRACT), None)
    for defect, killed in kills.items():
        counts = [len(killed)] + [sum(file_of(t) == c for t in killed) for c in columns]
        solution = sum(counts[1:3])
        if defect == CONTROL:
            ok, verdict = (not solution, "control: survives every solution-level check, as "
                           "expected" if not solution else "CONTROL FAILS A SOLUTION-LEVEL CHECK")
        elif defect in NUMERIC:
            ok, verdict = (bool(solution), "caught by a solution-level check" if solution
                           else "CAUGHT BY UNIT TESTS ONLY" if killed else "SURVIVES")
        else:
            ok, verdict = bool(killed), "caught" if killed else "SURVIVES"
        held &= ok
        if defect == first_contract:
            print()
        print(f"{defect:25s}", *(f"{n:{width}d}" for n in counts), f" {verdict}")
    caught = set().union(*kills.values())
    print("\ntests that fail under at least one defect, by file:")
    for name in sorted({file_of(t) for t in tests}):
        of_file = {t for t in tests if file_of(t) == name}
        print(f"  {name:25s} {len(of_file & caught):4d} / {len(of_file)}")
    if args.json:
        args.json.write_text(json.dumps({d: sorted(k) for d, k in kills.items()}, indent=1) + "\n")
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
