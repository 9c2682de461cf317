"""Paired in-process timings of the solver calls of two checkouts.

    python tools/step_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        [--seed-base K] [--tiny] [--set KEY=VALUE ...]

Imports each checkout's ``src/viscobeam`` in this one process, under the
module names ``viscobeam_parent`` and ``viscobeam_change``, and builds a
benchmark workload's inputs with each checkout's own config functions
from the workload's CLI arguments and seeded ``--set`` overrides, which
it reads from the parent's ``benchmarks/workloads.py`` (``--tiny`` adds
the workload's small-variant overrides, and ``--set`` overrides go last).
Pair i uses seed K+i and times one whole call per checkout, the parent
first in even pairs: ``run_batch`` of the problem for the ``solve`` and
``stability`` workloads, ``run_study`` for ``study`` ones, each with its
set-up and kernel tables; the CLI's config parsing and output writing
are not timed, and nothing is written.  It prints each side's quartiles
of the time per level in µs, the call's time over the workload's step
count, the quartiles of the paired ratios change / parent, the pairs
each side won and whether the gain rule of ``bench_pairs.summarize``
holds.  Both sides share one process, so they
see the same machine load, which process-level runs do not.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import sys
import time
from pathlib import Path

from bench_pairs import quartiles, summarize


def load(name: str, path: Path, package: bool = False):
    """The module (or, with ``package``, the package directory) at
    ``path``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def stepping(package, argv: list[str]):
    """A call that steps the CLI operation ``argv`` with the package."""
    name = package.__name__
    cli, config = (importlib.import_module(f"{name}.{m}") for m in ("cli", "config"))
    args = cli.build_parser().parse_args(argv)
    cfg = config.apply_overrides(package.preset_config(args.preset), args.set or [])
    solver = config.build_solver_config(cfg)
    if args.command == "study":
        study = config.build_study(cfg)
        return lambda: package.run_study(study, solver)
    problem, grid, N = (config.build_problem(cfg), config.build_grid(cfg),
                        config.build_steps(cfg))
    run_batch = importlib.import_module(f"{name}.stepper").run_batch
    return lambda: run_batch((problem,), grid, N, solver)


def timed(call) -> float:
    gc.collect()
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="use the workload's small variant")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="an override after the workload's own (repeatable)")
    args = parser.parse_args(argv)
    workloads = load("step_pairs_workloads", args.parent / "benchmarks" / "workloads.py")
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.shrunk()
    packages = {side: load(f"viscobeam_{side}", getattr(args, side) / "src" / "viscobeam", True)
                for side in ("parent", "change")}
    us = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        argv_i = list(workload.argv)
        for item in list(workload.overrides(seed)) + args.set:
            argv_i += ["--set", item]
        calls = {side: stepping(package, argv_i) for side, package in packages.items()}
        if i == 0:
            for call in calls.values():
                call()  # warm-up, untimed
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            us[side].append(1e6 * timed(calls[side]) / workload.steps)
    s = summarize(us["parent"], us["change"], "lower")
    ratios = quartiles([c / p for p, c in zip(us["parent"], us["change"])])
    print(f"{workload.name}, {args.pairs} pairs, seeds {args.seed_base}.."
          f"{args.seed_base + args.pairs - 1}, {workload.steps} levels per call")
    for side in ("parent", "change"):
        print(f"{side:7s} us/level q1 / median / q3: "
              + " / ".join(f"{v:.4g}" for v in s[side]))
    print("ratio change/parent q1 / median / q3: " + " / ".join(f"{v:.4f}" for v in ratios))
    print(f"wins change:parent {s['change_wins']}:{s['parent_wins']}, "
          f"gain {'yes' if s['gain'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
