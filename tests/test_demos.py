"""Smoke test: every demo script and the README quickstart run to completion.

Each demo is copied into a temporary directory first, so the files it
writes next to itself land there, and run in a fresh interpreter that
imports the package under test.  The quickstart is the first ``python``
block under the README's "Library quickstart" heading, run the same way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import viscobeam

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_script(source: str, tmp_path, name: str) -> subprocess.CompletedProcess:
    script = tmp_path / name
    script.write_text(source)
    package_root = str(Path(viscobeam.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_script(demo.read_text(), tmp_path, demo.name)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_script(source, tmp_path, "quickstart.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
