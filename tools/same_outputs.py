"""Check that two checkouts print and write the same outputs, byte for byte.

    python tools/same_outputs.py PARENT_DIR CHANGE_DIR

Runs each command of ``COMMANDS`` once per checkout, with that checkout's
``src`` on ``PYTHONPATH``, in a fresh temporary directory that is both
the working directory and the ``-o`` output directory.  A command is a
``viscobeam`` CLI argument list, or a path under the checkout's root to a
Python script (a demo), copied into the temporary directory and run there
with no arguments, so that the files it writes next to itself are
compared too.  Two runs agree when their exit codes, stdout and stderr
are equal, with the output directory replaced by a placeholder, and when
they wrote the same files with the same bytes, except for the ``created``
field of ``report.json``.  So the one-line JSON errors of the commands
that fail must match byte for byte.  Prints one line per command, ``same``
or ``DIFFERS`` with what differs, and the parent's exit code, and exits 1
if any command differs.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("solve", "--preset", "example1"),
    ("solve", "--preset", "example2"),
    ("solve", "--preset", "example1", "--set", "grid.J=64", "--set", "time.N=8192"),
    ("solve", "--preset", "example1", "--set", "initial.u0.amplitude=30"),
    ("solve", "--preset", "example2", "--set", "grid.J=30", "--set", "time.N=300"),
    ("study", "--preset", "example2-temporal"),
    ("study", "--preset", "example1-temporal"),
    ("study", "--preset", "example1-spatial"),
    ("study", "--preset", "example2-spatial"),
    ("stability", "--preset", "example2-longtime"),
    ("stability", "--preset", "example1"),
    ("stability", "--preset", "example2"),
    ("weights", "--preset", "example1"),
    ("weights", "--preset", "example2"),
    # Its far weights include roundoff-negative ones.
    ("weights", "--preset", "example2-longtime"),
    # Demo 02 steps level by level through the block cache and checks its
    # last level against run's.
    ("demos/02_single_simulation.py",),
    ("demos/03_convergence_study.py",),
    ("demos/04_long_time_energy.py",),
    # Error paths: a config error, a step that does not converge and a
    # study whose every cell fails.
    ("solve", "--preset", "example1", "--set", "kernel.sigma=0.5"),
    ("solve", "--preset", "example1", "--set", "time.N=16", "--set", "solver.fp_max_iters=1"),
    ("study", "--preset", "example2-temporal", "--set", "study.levels=2", "--set", "time.N=8",
     "--set", "grid.J=8", "--set", "solver.fp_max_iters=1"),
    # A step T/N that rounds to 0, and both config sources at once.
    ("solve", "--preset", "example1", "--set", "time.T=5e-324"),
    ("solve", "--preset", "example1", "--config", "missing.json"),
    # Ladders that cannot run: an odd temporal base and a spatial one too
    # coarse to nest; and a horizon whose kernel tables overflow.
    ("study", "--preset", "example2-temporal", "--set", "time.N=7"),
    ("study", "--preset", "example2-spatial", "--set", "grid.J=6"),
    ("weights", "--preset", "example1", "--set", "time.T=1e155", "--set", "time.N=4"),
    # A step count below 1, data whose functional is not finite (a forcing
    # singular at t = 0), a grid key typo, and a small alpha on coarse steps.
    ("solve", "--preset", "example1", "--set", "time.N=0"),
    ("stability", "--preset", "example1", "--set", "forcing.alpha=-0.5"),
    ("solve", "--preset", "example1", "--set", "grid.j=8"),
    ("weights", "--preset", "example2", "--set", "kernel.alpha=0.01", "--set", "time.T=10",
     "--set", "time.N=10"),
    # Counts below their least value: a grid, an iteration cap and a ladder.
    ("solve", "--preset", "example1", "--set", "grid.J=3"),
    ("solve", "--preset", "example1", "--set", "solver.fp_max_iters=0"),
    ("study", "--preset", "example2-temporal", "--set", "study.levels=1"),
    # A safety factor below 1, one whose bound overflows, and a numeric string.
    ("stability", "--preset", "example2", "--set", "time.N=8", "--safety", "0.5"),
    ("stability", "--preset", "example2", "--set", "time.N=8", "--safety", "1e308"),
    ("solve", "--preset", "example1", "--set", 'grid.J="8"'),
)
_CREATED = re.compile(rb'"created": "[^"]*"')


def outputs(checkout: Path, command) -> tuple[int, str, str, dict]:
    """Exit code, stdout and stderr (output directory as ``<OUT>``) and
    the files written, as {relative path: bytes}, of one run of ``command``."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()))
    with tempfile.TemporaryDirectory() as out:
        if command[0].endswith(".py"):
            script = Path(out, Path(command[0]).name)
            shutil.copyfile(Path(checkout, command[0]), script)
            argv = [sys.executable, script.name]
        else:
            script, argv = None, [sys.executable, "-m", "viscobeam.cli", *command, "-o", out]
        proc = subprocess.run(argv, cwd=out, env=env, capture_output=True, text=True)
        files = {}
        for path in sorted(Path(out).rglob("*")):
            if path.is_file() and path != script:
                data = path.read_bytes()
                if path.name == "report.json":
                    data = _CREATED.sub(b'"created": ""', data)
                files[str(path.relative_to(out))] = data
        return (proc.returncode, proc.stdout.replace(out, "<OUT>"),
                proc.stderr.replace(out, "<OUT>"), files)


def compare(parent: Path, change: Path, command) -> tuple[int, list[str]]:
    """The parent's exit code and what differs between the two checkouts'
    runs of ``command``, an empty list when nothing does."""
    (p_code, *p_streams, p_files), (c_code, *c_streams, c_files) = (
        outputs(side, command) for side in (parent, change))
    differences = []
    if p_code != c_code:
        differences.append(f"exit code {p_code} -> {c_code}")
    differences += [name for name, p, c in zip(("stdout", "stderr"), p_streams, c_streams)
                    if p != c]
    differences += [name for name in sorted(p_files.keys() | c_files.keys())
                    if p_files.get(name) != c_files.get(name)]
    return p_code, differences


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = map(Path, args)
    differs = False
    for command in COMMANDS:
        code, differences = compare(parent, change, command)
        differs = differs or bool(differences)
        print(f"{'DIFFERS' if differences else 'same':7s}  exit {code}  {' '.join(command)}"
              + (f": {', '.join(differences)}" if differences else ""), flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
