"""End-to-end and per-layer benchmark of the viscobeam command line.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every operation is one
``viscobeam.cli.main(argv)`` call in a fresh child process (``child.py``);
this script runs the children one at a time, times them from spawn to exit
and reads their CPU time and peak RSS from ``wait4``.  Before measuring it
runs one untimed warm-up child at a tiny size (module bytecode and the page
cache are then warm).  Operations repeat until ``--seconds`` have passed
since the first one started; each metric is the median over them.  Every
operation imports the package afresh, so ``setup_s`` is a median over as
many set-ups as there are operations.

The host's speed drifts by tens of percent, which no median within one run
removes, so ``--trace 0`` times are corrected for it (``calibrate.py``):
each child runs a fixed calibration mix, no viscobeam code, after its
import; its wall and CPU time are taken out of the operation's, and the
operation's times are scaled by ``REFERENCE_S`` over its calibration time:
they are the times the operation would have taken had its calibration
taken ``REFERENCE_S``.  The uncorrected medians are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones, plus the tracing overhead in ``run_s``; the traced outputs
must match the untraced ones byte for byte.  Every operation's outputs are
checked against the stored reference for the seed; an operation that exits
non-zero or misses its check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from calibrate import REFERENCE_S
from workloads import WORKLOADS, Workload, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 150.0
# Output files whose bytes must not depend on tracing (report.json carries a
# creation timestamp, so it is compared through the reference check only).
DETERMINISTIC_OUTPUTS = ("solution.csv", "timeseries.csv", "report.csv")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    """One child process: its timings, layer totals and check outcome."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    run_s: float = 0.0
    calibration_s: float = REFERENCE_S
    traced: bool = False
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def spawn(child_args: list[str], opdir: Path, env: dict) -> Op:
    """Run child.py once; the result JSON lands in ``opdir``."""
    opdir.mkdir(parents=True, exist_ok=True)
    result_path = opdir / "result.json"
    cmd = [sys.executable, str(CHILD), str(result_path)] + child_args
    with open(opdir / "stdout.txt", "w") as out, \
            open(opdir / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=opdir, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0, setup_s=0.0)
    if proc.returncode != 0:
        tail = (opdir / "stderr.txt").read_text()[-2000:]
        op.problems.append(f"child exited with {proc.returncode}: {tail}")
        return op
    result = json.loads(result_path.read_text())
    op.setup_s = result["setup_s"]
    op.run_s = result["run_s"]
    op.calibration_s = result["calibration_s"]
    op.wall_s -= op.calibration_s
    op.cpu_s -= result["calibration_cpu_s"]
    op.layers = result.get("layers", {})
    op.absent = result.get("absent_layers", [])
    if result["exit_code"] != 0:
        tail = (opdir / "stderr.txt").read_text()[-2000:]
        op.problems.append(f"CLI exited with {result['exit_code']}: {tail}")
    return op


def run_operation(workload: Workload, seed: int, reference: dict | None,
                  opdir: Path, env: dict, traced: bool = False) -> Op:
    """One CLI operation; checked against ``reference`` unless it is None."""
    outdir = opdir / "out"
    own_args = ["--calibrate", str(workload.history_rows)]
    if traced:
        own_args += ["--trace", str(opdir / "spans.json")]
    op = spawn(own_args + ["--"] + workload.cli_args(seed, outdir), opdir, env)
    op.traced = traced
    if op.ok and reference is not None:
        op.problems += workload.check(
            outdir, (opdir / "stdout.txt").read_text(), reference)
    return op


def differing_outputs(a: Path, b: Path) -> list[str]:
    """Deterministic output files whose bytes differ between two runs."""
    def content(path: Path) -> bytes | None:
        return path.read_bytes() if path.exists() else None
    return [name for name in DETERMINISTIC_OUTPUTS
            if content(a / name) != content(b / name)]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict, workdir: Path) -> dict:
    """Warm up, run operations for ``seconds``; summarize."""
    env = child_env()
    warm = run_operation(workload.shrunk(), seed, None, workdir / "warmup", env)
    if not warm.ok:
        raise BenchError(f"warm-up child failed: {warm.problems[0]}")

    ops: list[Op] = []
    first_plain = None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or not ops
           or (trace and len(ops) < 2)):
        traced = trace and len(ops) % 2 == 1
        opdir = workdir / f"op{len(ops)}"
        op = run_operation(workload, seed, reference, opdir, env, traced)
        if trace and op.ok:
            if not traced and first_plain is None:
                first_plain = opdir / "out"
            elif traced and first_plain is not None:
                changed = differing_outputs(first_plain, opdir / "out")
                if changed:
                    op.problems.append(f"tracing changed outputs: {changed}")
        if opdir / "out" != first_plain:
            shutil.rmtree(opdir, ignore_errors=True)
        ops.append(op)

    good = [op for op in ops if op.ok] or ops
    result = {
        "correct": all(op.ok for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "problems": [p for op in ops for p in op.problems],
        "samples": len(good),
    }
    if not trace:
        def times(scaled: bool) -> dict:
            def k(op):
                return REFERENCE_S / op.calibration_s if scaled else 1.0
            return {
                "wall_s": _median([op.wall_s * k(op) for op in good]),
                "setup_s": _median([op.setup_s * k(op) for op in good]),
                "run_s": _median([op.run_s * k(op) for op in good]),
                "cpu_s": _median([op.cpu_s * k(op) for op in good]),
                "step_us": _median([1e6 * op.run_s * k(op) / workload.steps
                                    for op in good]),
            }
        result["metrics"] = {
            **times(scaled=True),
            "peak_rss_mb": _median([op.peak_rss_mb for op in good]),
        }
        result["raw"] = times(scaled=False)
        result["calibration_s"] = _median([op.calibration_s for op in good])
        return result
    plain = [op for op in good if not op.traced]
    traced_ops = [op for op in good if op.traced]
    names = sorted({k for op in traced_ops for k in op.layers})
    metrics = {k: _median([op.layers.get(k, 0.0) for op in traced_ops])
               for k in names}
    metrics["trace.overhead_s"] = (_median([op.run_s for op in traced_ops])
                                   - _median([op.run_s for op in plain]))
    absent = sorted({a for op in traced_ops for a in op.absent})
    metrics["trace.absent_layers"] = len(absent)
    result["absent"] = absent
    result["metrics"] = metrics
    return result


def environment() -> dict:
    """The run environment as found; nothing here is pinned."""
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        blas = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def metric_specs(trace: bool) -> dict:
    """name -> unit for the metrics of this mode, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def emit(result: dict, units: dict) -> None:
    """Print every metric with its unit, then the one-line JSON result."""
    metrics = result["metrics"]
    missing = sorted(set(units) ^ set(metrics))
    if missing:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {missing}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(f"{'fail_frac':32s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations, "
          f"{result['samples']} timed)")
    if "raw" in result:
        print(f"host calibration: median {result['calibration_s']:.4g} s, "
              f"reference {REFERENCE_S:g} s; uncorrected medians: "
              + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    for name in result.get("absent", []):
        print(f"absent layer: {name}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "viscobeam" / "cli.py").is_file():
        print(f"no viscobeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / str(os.getpid())
    try:
        units = metric_specs(bool(args.trace))
        reference = load_reference(workload, args.seed)
        print("environment " + json.dumps(environment()))
        print(f"workload {workload.name} seed {args.seed}: "
              f"{' '.join(workload.cli_args(args.seed, Path('OUT')))}")
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         reference, workdir)
        emit(result, units)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
