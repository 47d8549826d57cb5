"""Print the code-line count of each ``src/mlangevin/*.py`` module and their
total, then that of each C source beside them (``_kernel.c``).

A code line is a source line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body, found with ``ast``) do not count.  In C, a
code line is one with anything left once ``/* */`` and ``//`` comments are
removed; preprocessor lines count.

Usage: python3 scripts/code_lines.py [package directory]
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def c_code_lines(source: str) -> int:
    """The number of code lines of a C ``source``."""
    code = re.sub(r"/\*.*?\*/|//[^\n]*",
                  lambda m: "\n" * m.group().count("\n"), source, flags=re.S)
    return sum(1 for line in code.splitlines() if line.strip())


def main(argv) -> int:
    package = Path(argv[1] if len(argv) > 1 else
                   Path(__file__).resolve().parents[1] / "src" / "mlangevin")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5d}")
    print(f"{'total':16} {total:5d}")
    for path in sorted(package.glob("*.c")):
        print(f"{path.name:16} {c_code_lines(path.read_text()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
