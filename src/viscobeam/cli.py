"""Command-line surface: solve, study, stability and weights subcommands.

solve, stability and weights share one set-up: it builds the problem,
grid, step count and solver knobs, so every section of the config is
checked, before it makes the output directory.  study builds its ladder
and sweep cells instead, and only it checks them.

Exit codes: 0 success, 2 configuration/validation error (also argparse
usage errors, and sizes too large to allocate), 3 numerical failure.
Failures print a single-line JSON object with an error category to
stderr, written by one helper.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (apply_overrides, build_grid, build_problem, build_solver_config,
                     build_steps, build_study, load_config)
from .diagnostics import data_functional, stability_monitor
from .kernel import ConfigurationError, KernelTables
from .presets import preset_config
from .stepper import NumericalError, _write_csv, run, write_solution_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load(args) -> dict:
    if args.preset:
        cfg = preset_config(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigurationError("provide --config FILE or --preset NAME")
    return apply_overrides(cfg, args.set or [])


def _outdir(args) -> Path:
    """The output directory, made before the run so that an unusable
    path is a config error rather than a failure after the run."""
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use output directory {out}: {exc}")
    return out


def _setup(args):
    """The problem, grid, step count and solver knobs the config sets,
    built and so checked in that order, and the output directory."""
    cfg = _load(args)
    built = build_problem(cfg), build_grid(cfg), build_steps(cfg), build_solver_config(cfg)
    return (*built, _outdir(args))


def _error(code: int, message: str) -> int:
    """Print the one-line JSON error of exit ``code`` to stderr and return it."""
    category = "config" if code == EXIT_CONFIG else "numerical"
    print(json.dumps({"category": category, "message": message}), file=sys.stderr)
    return code


def _cmd_solve(args) -> int:
    problem, grid, N, solver, out = _setup(args)
    state, series = run(problem, grid, N, solver)
    series.to_csv(out / "timeseries.csv")
    write_solution_csv(out / "solution.csv", grid, state.U_prev)
    print(f"solved {N} steps on J={grid.J}; final |u|_max = "
          f"{np.max(np.abs(state.U_prev)):.6e}")
    print(f"wrote {out / 'solution.csv'} and {out / 'timeseries.csv'}")
    return EXIT_OK


def _cmd_study(args) -> int:
    from .studies import run_study  # loaded by the one command that needs it

    cfg = _load(args)
    study = build_study(cfg)
    solver = build_solver_config(cfg)
    out = _outdir(args)
    report = run_study(study, solver, metadata={"config": cfg})
    report.to_csv(out / "report.csv")
    report.to_json(out / "report.json")
    print(report.format_table())
    print(f"wrote {out / 'report.csv'} and {out / 'report.json'}")
    failed = [c.label for c in report.cells if c.failure is not None]
    if failed:
        return _error(EXIT_NUMERICAL, f"study cells failed: {failed}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    # Checked before the run: a bound below the data functional is no bound,
    # and an infinite or NaN one passes whatever the energy does.
    if not 1.0 <= args.safety < np.inf:
        raise ConfigurationError(f"--safety must be at least 1 and finite (got {args.safety})")
    problem, grid, N, solver, out = _setup(args)
    state, series = run(problem, grid, N, solver)
    # A data functional that is not finite is the data's fault, not --safety's:
    # say a forcing singular at t = 0, a level the run samples for its norm alone.
    functional = data_functional(state)
    if not np.isfinite(functional):
        raise ConfigurationError(f"stability data functional {functional:.6e} is not finite; it "
                                 "sums norms of the initial data and of the forcing at every "
                                 "level, t = 0 included")
    try:
        verdict = stability_monitor(series.n, series.total, functional, safety=args.safety)
    except ConfigurationError as exc:
        raise ConfigurationError(f"--safety {args.safety}: {exc}") from None
    series.to_csv(out / "timeseries.csv")
    print(verdict)
    print(f"wrote {out / 'timeseries.csv'}")
    if not verdict.passed:
        return _error(EXIT_NUMERICAL, "stability monitor FAIL")
    return EXIT_OK


def _cmd_weights(args) -> int:
    problem, _, N, _, out = _setup(args)
    dt = problem.T / N
    tables = KernelTables.build(problem.kernel, dt, N)
    path = out / "weights.csv"
    k = np.arange(N)
    _write_csv(path, {"k": k, "t": k * dt, "omega": tables.weights})
    print(f"K0 = {tables.K0:.12g}  mu0 = {tables.mu0:.12g}  "
          f"min omega = {tables.weights.min():.6e}")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscobeam",
        description="Memory-damped beam solver and convergence-study harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="JSON config file")
        source.add_argument("--preset", help="named preset configuration")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. kernel.sigma=2.0")
        p.add_argument("-o", "--output-dir", default=".",
                       help="directory for output files (default: cwd)")

    common(sub.add_parser("solve", help="single run; writes solution + time series"))
    common(sub.add_parser("study", help="convergence ladder; writes report CSV/JSON"))
    p_stab = sub.add_parser("stability", help="long run with energy monitor verdict")
    common(p_stab)
    p_stab.add_argument("--safety", type=float, default=1e3,
                        help="stability bound safety factor (default 1e3)")
    common(sub.add_parser("weights", help="dump quadrature weights for inspection"))
    return parser


_HANDLERS = {"solve": _cmd_solve, "study": _cmd_study,
             "stability": _cmd_stability, "weights": _cmd_weights}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow and invalid values surface as the typed errors below,
        # so numpy's warnings would only break the one-line stderr.
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](args)
    except (ConfigurationError, MemoryError) as exc:
        # A MemoryError is a size the machine cannot hold, such as a step
        # count whose tables numpy refuses to allocate.
        return _error(EXIT_CONFIG, str(exc))
    except NumericalError as exc:
        return _error(EXIT_NUMERICAL, str(exc))


if __name__ == "__main__":
    sys.exit(main())
