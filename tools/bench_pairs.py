"""Paired benchmark runs of two checkouts, and the rule a claimed gain must meet.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seconds S --seed-base K

Before the first pair each checkout is copied into a temporary directory
of its own, without ``.git`` and the caches and work directories that
testing and benchmarking leave behind, so both sides run from fresh files
as a benchmark of committed files does; the copies are removed at exit.
Pair i runs each copy's own ``benchmarks/bench.py --workload W --seed K+i
--seconds S --trace 0``, unmodified, from that copy's root, one process at
a time; the parent goes first in even pairs and the change in odd ones.
Each run's last output line is its JSON result.  For every end-to-end
metric of the parent's ``BENCHMARK.json`` it prints both sides'
medians and quartiles over the pairs, how many pairs each side won (ties
count for neither) and whether a gain holds: the change won at least nine
tenths of the pairs, and the medians differ, in the metric's better
direction, by more than the parent's interquartile range.  Its
no-regression verdict reads "worse" when the change's median is worse than
the parent's by more than the metric's ``bound`` in ``BENCHMARK.json``, a
share of the parent's median; else "unresolved" when the parent's
interquartile range is wider than that bound, so the runs spread too widely
to tell; else "ok".  A run that fails, or that reports a failed operation,
stops the tool with its output.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Left out of the copies: version control, and what tests and benchmarks
# leave behind.
_NOT_COPIED = (".git", "__pycache__", ".pytest_cache", ".bench_work", ".benchmarks")


def quartiles(values) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (``statistics.quantiles``,
    exclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str,
              bound: float = math.inf) -> dict:
    """One metric's paired values, pair i being (parent[i], change[i]).

    ``better`` is "lower" or "higher" and ``bound`` the share of the
    parent's median a no-regression check allows.  Returns both sides'
    quartiles, the pairs each side won, the median gap (change minus
    parent), whether the gain rule holds and the no-regression verdict.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap, allowed = c[1] - p[1], bound * abs(p[1])
    verdict = ("worse" if sign * gap > allowed
               else "unresolved" if p[2] - p[0] > allowed else "ok")
    return {"parent": p, "change": c, "change_wins": wins, "parent_wins": losses,
            "gap": gap, "gain": 10 * wins >= 9 * len(parent) and -sign * gap > p[2] - p[0],
            "verdict": verdict}


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one ``bench.py`` run in ``checkout``."""
    argv = [sys.executable, "benchmarks/bench.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result["failed"]:
        raise RuntimeError(f"{checkout}: bench.py seed {seed} exited {proc.returncode}"
                           f"\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        copies = {side: Path(scratch) / side for side in runs}
        for side, copy in copies.items():
            shutil.copytree(getattr(args, side), copy,
                            ignore=shutil.ignore_patterns(*_NOT_COPIED))
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench(copies[side], args.workload, seed, args.seconds))
            print(f"pair {i} seed {seed}: " + ", ".join(
                f"{side} run_s {runs[side][-1]['run_s']:.4g}" for side in order), flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    print(f"{'metric':12s} {'parent q1 / median / q3':>28s} {'change q1 / median / q3':>28s}"
          f" {'wins c:p':>8s}  median gap         gain  no-regression")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      metric["better"], metric["bound"])
        p, c = ("{:.4g} / {:.4g} / {:.4g}".format(*s[k]) for k in ("parent", "change"))
        rel = s["gap"] / s["parent"][1] if s["parent"][1] else float("nan")
        wins = f"{s['change_wins']}:{s['parent_wins']}"
        print(f"{name:12s} {p:>28s} {c:>28s} {wins:>8s}  {s['gap']:+.4g} ({rel:+.1%})"
              f"  {'yes' if s['gain'] else 'no':4s}  {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
