import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""
import os  # a trailing comment keeps its line

# a comment line

def f(a,
      b):
    """One docstring line."""
    text = """a string that is
    not a docstring"""
    return os.path.join(
        a,  # a comment inside the call
        b,
    )


class C:
    """A class docstring."""

    x = 1
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    # import, the two lines of def, the two of the string, the four of the
    # call, class, and x
    assert code_lines.code_lines(SOURCE) == 11
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 9, 19}


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["11", "1", "12"]
    assert out[-1].split()[1] == "total"
