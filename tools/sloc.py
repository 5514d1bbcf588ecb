"""Count the source lines of ``src/drcalc`` without docstrings,
comments or blank lines.

    python3 tools/sloc.py [DIR]

prints one line per module and the total.  A line counts when some
token other than a comment starts, ends or runs through it, and it
lies outside every module, class and function docstring.  A last line
counts the parameters with a default value, over every function and
method (lambdas excluded).  ``DIR`` defaults to ``src/drcalc`` next to
this script's parent directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def defaults(tree) -> int:
    """Parameters with a default value, over every function and method."""
    return sum(
        len(node.args.defaults)
        + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def count(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else (
        Path(__file__).resolve().parent.parent / "src" / "drcalc"
    )
    total = params = 0
    for path in sorted(root.glob("*.py")):
        n = count(path)
        total += n
        params += defaults(ast.parse(path.read_text(encoding="utf-8")))
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{params:6d}  parameters with a default")
    return 0


if __name__ == "__main__":
    sys.exit(main())
