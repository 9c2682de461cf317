import viscobeam


def test_star_import_and_unique_public_names():
    # A name left in __all__ after its definition is deleted breaks
    # ``from viscobeam import *`` with an AttributeError.
    namespace = {}
    exec("from viscobeam import *", namespace)
    assert set(viscobeam.__all__) <= set(namespace)
    assert len(set(viscobeam.__all__)) == len(viscobeam.__all__)


def test_line_count_rule():
    # tools/src_lines.py: docstring, comment and blank lines are not
    # logical lines; a string that spans lines counts each of them.
    import importlib.util
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
