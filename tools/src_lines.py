"""Line counts of the package's modules, to track its size from change to change.

    python3 tools/src_lines.py [DIR]

Prints one line per ``*.py`` file under DIR (default ``src/fedmvc`` of this
checkout), sorted by name: its lines in total, then its code lines, which
leave out blank lines, comment-only lines and the docstrings of the module
and of every class and function. The last line is the sum of both columns.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers held by the docstring of the module, a class or a function."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """``(total, code)`` lines of one module's source."""
    lines = source.splitlines()
    skip = _docstring_lines(ast.parse(source))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][:tok.start[1]].strip():
            skip.add(tok.start[0])
    code = sum(1 for i, line in enumerate(lines, 1) if line.strip() and i not in skip)
    return len(lines), code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "fedmvc"))
    args = parser.parse_args(argv)
    total = code = 0
    for path in sorted(Path(args.dir).glob("*.py")):
        t, c = count_lines(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
        print(f"{path.name:<16} {t:>6} {c:>6}")
    print(f"{'total':<16} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
