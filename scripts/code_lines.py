"""Code lines of ``src/supineq``, per module and in total.

    python3 scripts/code_lines.py [DIR]

A code line is a physical line that holds at least one token of code: blank
lines, comment lines and the lines of a docstring (a string that is the first
statement of a module, class or function body) do not count.  A line that
closes a bracket, or a line inside a multi-line string that is not a
docstring, does.  ``DIR`` defaults to ``src/supineq`` beside this script's
parent; the modules are its ``*.py`` files, not its subdirectories.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers of every docstring in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count_dir(path: str) -> dict:
    """Code lines of each ``*.py`` module in ``path``, by module name."""
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                out[name[:-3]] = code_lines(fh.read())
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else os.path.join(ROOT, "src", "supineq")
    counts = count_dir(path)
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<12}{n:>6}")
    print(f"{'total':<12}{sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
