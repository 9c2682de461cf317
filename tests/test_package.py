import viscobeam


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
    import importlib.util
    import re
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
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

    # Each directory's total line, then one line per file, which sum to it.
    src_lines.main([str(path.parent.parent / "src")])
    lines = capsys.readouterr().out.splitlines()
    counts = [re.fullmatch(r"\s*(.+): ([\d,]+) lines by wc, ([\d,]+) logical", line)
              .groups() for line in lines]
    assert counts[0][0] == "src" and "viscobeam/model.py" in [c[0] for c in counts]
    for k in (1, 2):
        assert sum(int(c[k].replace(",", "")) for c in counts[1:]) \
            == int(counts[0][k].replace(",", ""))


def test_line_count_tool_is_quiet_when_its_reader_leaves(tmp_path):
    # ``python tools/src_lines.py | head -1`` once ended in a BrokenPipeError
    # traceback.  Some 120 kB of output, more than a pipe holds, keeps the
    # tool writing after the reader has closed its end.
    import subprocess
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "x.py").write_text("x = 1\n")
    with subprocess.Popen([sys.executable, str(path)] + ["d"] * 2000, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"d: 1 lines by wc, 1 logical\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""


def test_bench_pairs_summary():
    # tools/bench_pairs.py: a gain needs wins in at least nine tenths of the
    # pairs and a median gap wider than the parent's interquartile range,
    # in the metric's better direction; ties count for neither side.
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    summarize = bench_pairs.summarize

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
