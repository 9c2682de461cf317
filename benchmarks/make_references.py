"""Regenerate the stored per-draw output references of the workloads.

    python3 benchmarks/make_references.py [WORKLOAD ...]

Runs each workload once per parameter draw (seeds 0..POOL-1) through the
same child process the benchmark uses and writes what its check compares
to ``references/<workload>.json``.  References pin the outputs of the
commit that generated them; regenerate only when a change of results is
intended and stated.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from bench import WORK, child_env, run_operation
from workloads import POOL, WORKLOADS, reference_path


def main(names) -> int:
    env = child_env()
    workdir = WORK / f"references-{os.getpid()}"
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            draws = {}
            for draw in range(POOL):
                opdir = workdir / f"{name}-{draw}"
                op = run_operation(workload, draw, None, opdir, env)
                if not op.ok:
                    print(f"{name} draw {draw}: {op.problems}", file=sys.stderr)
                    return 1
                stdout = (opdir / "stdout.txt").read_text()
                draws[str(draw)] = {
                    "set": workload.overrides(draw),
                    "reference": workload.extract(opdir / "out", stdout),
                }
                shutil.rmtree(opdir)
                print(f"{name} draw {draw}: run_s {op.run_s:.3f}", flush=True)
            path = reference_path(name)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"workload": name, "pool": POOL,
                                        "draws": draws}, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
