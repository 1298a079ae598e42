"""A/B timing of the benchmark's set-up step between two source trees.

Usage:
    python tools/setup_ab.py PARENT CHANGE --workload certify [--pairs 10]
        [--pyc none|current] [--no-site]

PARENT and CHANGE are checkouts of the repository.  Each run is a fresh
interpreter executing ``SETUP_CODE`` from ``bench/run.py`` (read from the
file, so both sides run exactly what the benchmark times as ``setup_s``):
import ``holderbounds`` from the tree's ``src`` and parse the workload's
input files.  Runs alternate between the trees, and the side that goes
first alternates from pair to pair.  The inputs are the workload's files
in CHANGE.

``--pyc none`` deletes the ``__pycache__`` directories under both trees'
``src`` and runs with ``PYTHONDONTWRITEBYTECODE=1``, so every run compiles
the package from source.  ``--pyc current`` compiles both trees first, as
the benchmark's own imports do before it times set-up.  ``--no-site``
runs the interpreters with ``-S``, which skips the ``site`` module and
whatever its ``.pth`` files import.

It prints each side's median and quartiles in milliseconds, and in how
many pairs the change was faster (ties count for neither side).
"""

from __future__ import annotations

import argparse
import ast
import compileall
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def setup_code(run_py: Path) -> str:
    """The string assigned to ``SETUP_CODE`` in ``bench/run.py``."""
    for node in ast.parse(run_py.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SETUP_CODE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SETUP_CODE in {run_py}")


def workload_inputs(root: Path, workload: str) -> list[str]:
    """The input files of ``workload``, as ``bench/workloads.py`` in ``root`` lists them."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    return workloads.input_paths(workloads.WORKLOADS[workload])


def prepare(src: Path, pyc: str) -> None:
    if pyc == "none":
        for cache in sorted(src.rglob("__pycache__")):
            shutil.rmtree(cache)
    elif not compileall.compile_dir(str(src), quiet=1):
        raise SystemExit(f"compileall failed on {src}")


def time_once(code: str, src: Path, paths: list[str], env: dict, flags: list[str]) -> float:
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, str(src), *paths],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def describe(name: str, times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"{name:<7} median {1e3 * q2:7.2f} ms   quartiles {1e3 * q1:.2f} to {1e3 * q3:.2f} ms"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--pyc", choices=("none", "current"), default="none")
    parser.add_argument("--no-site", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    trees = {"parent": args.parent.resolve() / "src", "change": args.change.resolve() / "src"}
    code = setup_code(args.change / "bench" / "run.py")
    paths = workload_inputs(args.change.resolve(), args.workload)
    for src in trees.values():
        prepare(src, args.pyc)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    if args.pyc == "none":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    flags = ["-S"] if args.no_site else []

    times: dict[str, list[float]] = {"parent": [], "change": []}
    wins = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            times[side].append(time_once(code, trees[side], paths, env, flags))
        wins += times["change"][-1] < times["parent"][-1]

    site = "-S" if args.no_site else "site"
    print(f"workload {args.workload}: {len(paths)} inputs, {args.pairs} pairs, pyc {args.pyc}, {site}")
    for side in ("parent", "change"):
        print(describe(side, times[side]))
    print(f"change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
