import importlib.util
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import viscobeam

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    """The module ``tools/<name>.py`` of this checkout."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_star_import_and_unique_public_names():
    # A name left in __all__ after its definition is deleted breaks
    # ``from viscobeam import *`` with an AttributeError.
    namespace = {}
    exec("from viscobeam import *", namespace)
    assert set(viscobeam.__all__) <= set(namespace)
    assert len(set(viscobeam.__all__)) == len(viscobeam.__all__)


def test_line_count_rule(capsys):
    # tools/src_lines.py: docstring, comment and blank lines are not
    # logical lines; a string that spans lines counts each of them.
    src_lines = load_tool("src_lines")
    source = '''"""Module
docstring."""
# a comment

class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """two
lines"""  # trailing comment
        return text
'''
    assert src_lines.count(source) == (13, 5)

    # Each directory's total line, then one line per file, which sum to it;
    # the sizes are the files' bytes.
    src = ROOT / "src"
    src_lines.main([str(src)])
    lines = capsys.readouterr().out.splitlines()
    counts = [re.fullmatch(
        r"\s*(.+): ([\d,]+) lines by wc, ([\d,]+) logical, ([\d,]+) bytes", line)
        .groups() for line in lines]
    assert counts[0][0] == "src" and "viscobeam/model.py" in [c[0] for c in counts]
    assert int(counts[1][3].replace(",", "")) == len((src / counts[1][0]).read_bytes())
    for k in (1, 2, 3):
        assert sum(int(c[k].replace(",", "")) for c in counts[1:]) \
            == int(counts[0][k].replace(",", ""))


def test_line_count_tool_is_quiet_when_its_reader_leaves(tmp_path):
    # ``python tools/src_lines.py | head -1`` once ended in a BrokenPipeError
    # traceback.  Some 120 kB of output, more than a pipe holds, keeps the
    # tool writing after the reader has closed its end.
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "x.py").write_text("x = 1\n")
    with subprocess.Popen([sys.executable, str(ROOT / "tools" / "src_lines.py")] + ["d"] * 2000,
                          cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"d: 1 lines by wc, 1 logical, 6 bytes\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""


def test_bench_pairs_summary():
    # tools/bench_pairs.py: a gain needs wins in at least nine tenths of the
    # pairs and a median gap wider than the parent's interquartile range,
    # in the metric's better direction; ties count for neither side.
    summarize = load_tool("bench_pairs").summarize

    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [p - 0.1 for p in parent]
    s = summarize(parent, change, "lower")
    assert s["parent"] == (0.98, 1.0, 1.02)
    assert s["change_wins"] == 10 and s["parent_wins"] == 0 and s["gain"]
    assert abs(s["gap"] + 0.1) < 1e-12
    # The same numbers for a metric where higher is better: a loss.
    s = summarize(parent, change, "higher")
    assert s["change_wins"] == 0 and s["parent_wins"] == 10 and not s["gain"]

    # Eight wins, one tie and one loss in ten pairs is short of 9/10.
    change = [p - 0.1 for p in parent[:8]] + [parent[8], parent[9] + 0.1]
    s = summarize(parent, change, "lower")
    assert (s["change_wins"], s["parent_wins"]) == (8, 1) and not s["gain"]

    # Ten wins by a gap narrower than the parent's IQR of 0.04: no gain.
    s = summarize(parent, [p - 0.03 for p in parent], "lower")
    assert s["change_wins"] == 10 and not s["gain"]

    # No regression: worse when the change's median is worse by more than
    # the bound's share of the parent's median, unresolved when the
    # parent's IQR is wider than that share.  Without a bound, always ok.
    assert s["verdict"] == "ok"
    assert summarize(parent, [p + 0.03 for p in parent], "lower", 0.05)["verdict"] == "ok"
    assert summarize(parent, [p + 0.06 for p in parent], "lower", 0.05)["verdict"] == "worse"
    assert summarize(parent, [p - 0.06 for p in parent], "higher", 0.05)["verdict"] == "worse"
    assert summarize(parent, [p - 0.06 for p in parent], "lower", 0.05)["verdict"] == "ok"
    assert summarize(parent, parent, "lower", 0.03)["verdict"] == "unresolved"
    assert summarize(parent, [p + 0.06 for p in parent], "lower", 0.03)["verdict"] == "worse"


def test_bench_pairs_runs_fresh_copies(capsys):
    # tools/bench_pairs.py runs each side's bench.py in a copy of its
    # checkout, made before the first pair, without .git, and removed at
    # exit: a change read from the git checkout once read long-history's
    # run_s 3 % slower than fresh copies of the same files.
    bench_pairs = load_tool("bench_pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    line = json.dumps({"failed": 0, "metrics": {
        m["name"]: {"value": 1.0} for m in spec["end_to_end"]}})
    cwds = []

    def run(argv, cwd, **kwargs):
        cwds.append(Path(cwd))
        assert (cwds[-1] / "benchmarks" / "bench.py").is_file()
        assert not (cwds[-1] / ".git").exists()
        return types.SimpleNamespace(returncode=0, stdout=line + "\n", stderr="")

    bench_pairs.subprocess = types.SimpleNamespace(run=run)
    assert bench_pairs.main([str(ROOT), str(ROOT), "--workload", "long-history",
                             "--pairs", "2", "--seed-base", "0"]) == 0
    assert len(cwds) == 4 and len(set(cwds)) == 2 and ROOT not in cwds
    assert not any(cwd.exists() for cwd in cwds)
    assert capsys.readouterr().out.count(" ok\n") == len(spec["end_to_end"])


def test_step_pairs_smoke():
    # tools/step_pairs.py with this checkout on both sides, at each
    # workload's small size: both sides import under their own module
    # names, step (run_batch, or run_study for the study) and get
    # summarized per level.  One run takes an extra override.
    for workload in ("long-history", "study-ladder", "long-horizon"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "step_pairs.py"), str(ROOT), str(ROOT),
             "--workload", workload, "--pairs", "2", "--tiny"]
            + (["--set", "initial.u0.amplitude=30"] if workload == "long-history" else []),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith(f"{workload}, 2 pairs, seeds 0..1, ")
        for side, line in zip(("parent", "change"), lines[1:3]):
            assert re.fullmatch(rf"{side}\s+us/level q1 / median / q3: [\d.e+]+ / [\d.e+]+ / [\d.e+]+",
                                line), line
        assert lines[3].startswith("ratio change/parent q1 / median / q3: ")
        assert re.fullmatch(r"wins change:parent \d:\d, gain (yes|no)", lines[4])


def test_same_outputs_compare(tmp_path):
    # tools/same_outputs.py: this checkout against itself gives the same
    # exit code, stdout and stderr (output directory aside) and files; a
    # copy of src/ whose cli prints one extra character differs in stdout
    # only, and one whose config error message has one extra character
    # differs in stderr only.
    same_outputs = load_tool("same_outputs")
    command = ("solve", "--preset", "example1", "--set", "grid.J=8", "--set", "time.N=8")
    assert same_outputs.compare(ROOT, ROOT, command) == (0, [])

    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "viscobeam" / "cli.py"
    text = cli.read_text()
    assert text.count('print(f"solved {N} steps') == 1
    cli.write_text(text.replace('print(f"solved {N} steps', 'print(f"solved  {N} steps'))
    assert same_outputs.compare(ROOT, tmp_path, command) == (0, ["stdout"])

    config = tmp_path / "src" / "viscobeam" / "config.py"
    text = config.read_text()
    assert text.count('f"unknown config key ') == 1
    config.write_text(text.replace('f"unknown config key ', 'f"unknown config  key '))
    typo = ("solve", "--preset", "example1", "--set", "grid.j=8")
    assert same_outputs.compare(ROOT, tmp_path, typo) == (2, ["stderr"])


def test_mutants_apply_once_and_compile():
    # tools/mutants.py: each defect's text occurs once in its file of src/
    # and the patched module compiles; a text that does not occur is an
    # error, not a survivor.
    mutants = load_tool("mutants")
    for defect in mutants.DEFECTS:
        path, text = mutants.patched(ROOT / "src", defect)
        assert text != path.read_text()
        compile(text, str(path), "exec")
    mutants.DEFECTS["typo"] = ("kernel.py", "no such text", "")
    with pytest.raises(mutants.AuditError, match="occurs 0 times"):
        mutants.patched(ROOT / "src", "typo")


def test_mutants_report_no_broken_run(capsys):
    # With runs faked: a clean run that fails exits 2 and prints no matrix.
    # Each numeric defect must fail a solution-level check, the control
    # none, and each contract defect some test; otherwise the audit exits 1.
    # The per-file lines count the clean run's tests that some defect fails.
    mutants, runs = load_tool("mutants"), {None: {"tests.test_cli::test_a"}}
    tests = {"tests.test_cli::test_a", "tests.test_cli::test_d", "tests.test_oracle::test_b",
             "tests.test_kernel.T::t", "tests.test_stepper.T::t"}
    mutants.run_defect = lambda defect: (tests, runs[defect])
    assert mutants.main([]) == 2 and "defect" not in capsys.readouterr().out
    runs.update({None: set(), "tail-x1.02": {"tests.test_oracle::test_b", "tests.test_kernel.T::t"},
                 mutants.CONTROL: {"tests.test_stepper.T::t"},
                 "csv-lf-line-ends": {"tests.test_cli::test_a"}})
    assert mutants.main(["tail-x1.02", mutants.CONTROL, "csv-lf-line-ends"]) == 0
    out = capsys.readouterr().out
    assert "caught by a solution-level check" in out and "as expected" in out
    assert [line.split() for line in out.splitlines()[-4:]] == [
        ["test_cli.py", "1", "/", "2"], ["test_kernel.py", "1", "/", "1"],
        ["test_oracle.py", "1", "/", "1"], ["test_stepper.py", "1", "/", "1"]]
    for defect, killed in [(mutants.CONTROL, {"tests.test_acceptance::test_c"}),
                           ("tail-x1.02", {"tests.test_kernel.T::t"}),
                           ("csv-lf-line-ends", set())]:
        runs[defect] = killed
        assert mutants.main([defect]) == 1
