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
