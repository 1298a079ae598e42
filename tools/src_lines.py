"""Line counts of every module under src/, by kind.

Usage: python tools/src_lines.py [SRC_DIR]
       python tools/src_lines.py PARENT_SRC CHANGE_SRC

For each module and in total it prints four counts.  ``total`` counts
every line.  ``docstrings`` counts the lines that ``ast`` places inside a
module, class or function docstring.  ``comments`` counts the other lines
whose text starts with ``#``, and ``code`` the other nonblank lines.
Blank lines count in ``total`` alone.  Given two trees it prints, for
each module in either and in total, the change from the first tree to
the second, then both trees' totals.
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


KINDS = ("total", "code", "docstrings", "comments")


def tree(root: Path) -> dict[str, dict[str, int]]:
    return {str(path.relative_to(root)): count(path) for path in sorted(root.rglob("*.py"))}


def _row(name: str, counts: dict[str, int], sign: str = "") -> str:
    return f"{name:<32}" + "".join(f"{counts[k]:>{sign}12,}" for k in KINDS)


def _sum(modules: dict[str, dict[str, int]]) -> dict[str, int]:
    return {k: sum(counts[k] for counts in modules.values()) for k in KINDS}


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv[1:]] or [Path(__file__).resolve().parent.parent / "src"]
    print(f"{'module':<32}" + "".join(f"{k:>12}" for k in KINDS))
    if len(roots) == 1:
        modules = tree(roots[0])
        for name, counts in modules.items():
            print(_row(name, counts))
        print(_row("all", _sum(modules)))
        return 0
    parent, change = map(tree, roots)
    zero = dict.fromkeys(KINDS, 0)
    for name in sorted(parent.keys() | change.keys()):
        old, new = parent.get(name, zero), change.get(name, zero)
        print(_row(name, {k: new[k] - old[k] for k in KINDS}, "+"))
    old, new = _sum(parent), _sum(change)
    print(_row("all", {k: new[k] - old[k] for k in KINDS}, "+"))
    print(_row("all, first tree", old))
    print(_row("all, second tree", new))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
