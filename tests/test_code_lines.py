"""``scripts/code_lines.py``'s count, on a small synthetic module."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def code_lines_script():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(ROOT, "scripts", "code_lines.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


CL = code_lines_script()

# nine code lines: the import, the def, both lines of the bracketed sum, both
# lines of the string that is not a docstring, the return, the class and its
# field; no docstring, comment or blank line counts
SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment


# a comment line
def f(x):
    """One-line docstring."""
    y = (x +
         1)
    s = """a string
that is not a docstring"""
    return y, s


class C:
    """Class
    docstring."""

    z = 1
'''


def test_synthetic_module():
    assert CL.code_lines(SOURCE) == 9


def test_a_body_of_docstrings_and_comments_has_no_code_line():
    assert CL.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_per_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert CL.count_dir(str(tmp_path)) == {"a": 9, "b": 1}
    assert CL.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a", "9", "b", "1", "total", "10"]
