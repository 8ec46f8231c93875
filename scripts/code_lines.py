#!/usr/bin/env python3
"""Count total and code lines of Python modules.

A code line is one that is neither blank, comment nor docstring: it holds
at least one token other than a comment, and is not part of a module,
class or function docstring.  A string that spans several lines counts
every line it spans, unless it is a docstring.

    python scripts/code_lines.py              # the modules of src/framelab
    python scripts/code_lines.py tests        # any files or directories

Prints one line per module, "total code path", and the sums last.
"""

import argparse
import ast
import io
import os
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int]:
    """Total lines and code lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr):
            doc = node.body[0].value
            if isinstance(doc, ast.Constant) and isinstance(doc.value, str):
                code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).resolve().parent.parent
    parser.add_argument("paths", nargs="*", type=Path, default=[root / "src" / "framelab"])
    args = parser.parse_args()
    files = sorted(f for p in args.paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = code = 0
    for path in files:
        t, c = counts(path.read_text())
        total, code = total + t, code + c
        print(f"{t:6d} {c:6d} {os.path.relpath(path)}")
    print(f"{total:6d} {code:6d} total")


if __name__ == "__main__":
    main()
