"""Count the code lines of each module under src/, and their total.

A code line holds at least one token that is not a comment, and is not part
of a docstring (a module's, a class's or a function's first statement when
that is a string).  Blank lines, comment lines and docstring lines do not
count; a string or bracket spanning several lines counts each line it spans.

Usage: python tools/src_lines.py [SRC_DIR]    (default: src next to tools/)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(text: str) -> int:
    """The number of code lines in Python source text."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
