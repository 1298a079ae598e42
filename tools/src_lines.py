"""Line counts of every module under src/, by kind.

Usage: python tools/src_lines.py [SRC_DIR]

For each module and in total it prints four counts.  ``total`` counts
every line.  ``docstrings`` counts the lines that ``ast`` places inside a
module, class or function docstring.  ``comments`` counts the other lines
whose text starts with ``#``, and ``code`` the other nonblank lines.
Blank lines count in ``total`` alone.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    out = {"total": 0, "code": 0, "docstrings": 0, "comments": 0}
    for number, line in enumerate(text.splitlines(), start=1):
        out["total"] += 1
        if number in docstrings:
            out["docstrings"] += 1
        elif line.strip().startswith("#"):
            out["comments"] += 1
        elif line.strip():
            out["code"] += 1
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src")
    kinds = ("total", "code", "docstrings", "comments")
    print(f"{'module':<32}" + "".join(f"{k:>12}" for k in kinds))
    sums = dict.fromkeys(kinds, 0)
    for path in sorted(root.rglob("*.py")):
        counts = count(path)
        for k in kinds:
            sums[k] += counts[k]
        print(f"{str(path.relative_to(root)):<32}" + "".join(f"{counts[k]:>12,}" for k in kinds))
    print(f"{'all':<32}" + "".join(f"{sums[k]:>12,}" for k in kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
