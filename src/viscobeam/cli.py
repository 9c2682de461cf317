"""Command-line surface: solve, study, stability and weights subcommands.

Exit codes: 0 success, 2 configuration/validation error (also argparse
usage errors), 3 numerical failure.  Failures print a single-line JSON
object with an error category to stderr.
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
from .model import require_valid
from .presets import preset_config
from .stepper import NumericalError, run, write_solution_csv
from .studies import run_study

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
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup(args):
    """The loaded config and the validated problem, grid and step count it sets."""
    cfg = _load(args)
    problem = require_valid(build_problem(cfg))
    return cfg, problem, build_grid(cfg), build_steps(cfg)


def _cmd_solve(args) -> int:
    cfg, problem, grid, N = _setup(args)
    solver = build_solver_config(cfg)
    state, series = run(problem, grid, N, solver)
    out = _outdir(args)
    series.to_csv(out / "timeseries.csv")
    write_solution_csv(out / "solution.csv", grid, state.U_prev)
    print(f"solved {N} steps on J={grid.J}; final |u|_max = "
          f"{np.max(np.abs(state.U_prev)):.6e}")
    print(f"wrote {out / 'solution.csv'} and {out / 'timeseries.csv'}")
    return EXIT_OK


def _cmd_study(args) -> int:
    cfg = _load(args)
    study = build_study(cfg)
    solver = build_solver_config(cfg)
    report = run_study(study, solver, metadata={"config": cfg})
    out = _outdir(args)
    report.to_csv(out / "report.csv")
    report.to_json(out / "report.json")
    print(report.format_table())
    print(f"wrote {out / 'report.csv'} and {out / 'report.json'}")
    failed = [c.label for c in report.cells if c.failure is not None]
    if failed:
        print(json.dumps({"category": "numerical",
                          "message": f"study cells failed: {failed}"}),
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_stability(args) -> int:
    # Checked before the run: a bound below the data functional is no bound.
    if not args.safety >= 1.0:
        raise ConfigurationError(f"--safety must be at least 1 (got {args.safety})")
    cfg, problem, grid, N = _setup(args)
    solver = build_solver_config(cfg)
    state, series = run(problem, grid, N, solver)
    functional = data_functional(problem, grid, state.dt, N,
                                 C0=state.tables.K0, mu0=state.tables.mu0)
    verdict = stability_monitor(series.n, series.total, functional,
                                 safety=args.safety)
    out = _outdir(args)
    series.to_csv(out / "timeseries.csv")
    print(verdict)
    print(f"wrote {out / 'timeseries.csv'}")
    if not verdict.passed:
        print(json.dumps({"category": "numerical",
                          "message": "stability monitor FAIL"}), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_weights(args) -> int:
    _, problem, _, N = _setup(args)
    dt = problem.T / N
    tables = KernelTables.build(problem.kernel, dt, N)
    out = _outdir(args)
    path = out / "weights.csv"
    with open(path, "w") as fh:
        fh.write("k,t,omega\n")
        for k, w in enumerate(tables.weights):
            fh.write(f"{k},{k * dt!r},{w!r}\n")
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
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="named preset configuration")
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
        return _HANDLERS[args.command](args)
    except ConfigurationError as exc:
        print(json.dumps({"category": "config", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(json.dumps({"category": "numerical", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL
    except FloatingPointError as exc:
        print(json.dumps({"category": "numerical",
                          "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
