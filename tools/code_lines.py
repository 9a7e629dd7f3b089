"""Print the package's code lines, per module and in total.

A code line is a line that some token touches other than a comment or a
docstring (the string that opens a module, class or function body); blank
lines, comment lines and docstring lines do not count, and a multi-line
token such as a string literal counts every line it spans.  Tokens come
from ``tokenize`` and docstrings from ``ast``.

Usage: python tools/code_lines.py [package directory, default src/collapsim]
"""

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_spans(source):
    """(first, last) line of each module, class and function docstring."""
    spans = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.add((first.lineno, first.end_lineno))
    return spans


def code_lines(source):
    """The number of code lines of a module's source."""
    docstrings = docstring_spans(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and (tok.start[0], tok.end[0]) in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = pathlib.Path(argv[0] if argv else "src/collapsim")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
