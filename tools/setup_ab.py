"""A/B timing of the benchmark between two source trees.

Usage:
    python tools/setup_ab.py PARENT CHANGE --workload certify [--pairs 10]
        [--pyc none|current] [--no-site]
    python tools/setup_ab.py PARENT CHANGE --workload geometry --bench SECONDS
        [--pairs 10] [--pyc none|current]
    python tools/setup_ab.py PARENT CHANGE --workload certify --rss-passes N
        [--pairs 10] [--pyc none|current]

PARENT and CHANGE are checkouts of the repository.  Runs alternate
between the trees, and the side that goes first alternates from pair to
pair.

Without ``--bench`` each run is a fresh interpreter executing
``SETUP_CODE`` from ``bench/run.py`` (read from the file, so both sides
run exactly what the benchmark times as ``setup_s``): import
``holderbounds`` from the tree's ``src`` and parse the workload's input
files.  The inputs are the workload's files in CHANGE.

With ``--bench SECONDS`` each run is the whole benchmark in the tree,
``bench/run.py --workload W --seconds SECONDS --trace 0`` at the
benchmark's default seed, started from the tree's root; a run that
does not report ``correct`` with no failed job stops the comparison.
Every end-to-end metric that ``BENCHMARK.json`` in CHANGE declares is
compared.

With ``--rss-passes N`` each run is a fresh interpreter, started from
the tree's root, that loads ``bench/run.py`` as a module and makes N of
its untraced passes over the workload's jobs, each checked as the
benchmark checks it, then reports its ``ru_maxrss`` as ``peak_rss_mb``.
The benchmark's ``peak_rss_mb`` is the same reading after as many passes
as fit in its run, so equal pass counts tell whether a change in it
comes from the code or from the number of passes.

``--pyc none`` deletes the ``__pycache__`` directories under both trees'
``src`` and runs with ``PYTHONDONTWRITEBYTECODE=1``, so every run compiles
the package from source.  ``--pyc current`` compiles both trees first, as
the benchmark's own imports do before it times set-up.  ``--no-site``
runs the interpreters with ``-S``, which skips the ``site`` module and
whatever its ``.pth`` files import.

For each metric it prints each side's median and quartiles, and in how
many pairs the change was better (ties count for neither side).
"""

from __future__ import annotations

import argparse
import ast
import compileall
import json
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


def time_once(code: str, src: Path, paths: list[str], env: dict, flags: list[str]) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, str(src), *paths],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return {"setup_s": float(done.stdout.split()[-1])}


def bench_once(root: Path, args: argparse.Namespace, env: dict, flags: list[str]) -> dict[str, float]:
    """The end-to-end metrics of one ``bench/run.py --trace 0`` run in ``root``."""
    command = [
        sys.executable, *flags, "bench/run.py", "--workload", args.workload,
        "--seconds", str(args.bench), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=root, env=env, capture_output=True, text=True,
        timeout=600 + 10 * args.bench, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: the benchmark reported {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


# Run from a tree's root: N passes of bench/run.py's jobs, then the peak RSS.
RSS_CODE = """\
import os, resource, sys
sys.path.insert(0, os.path.join(os.getcwd(), "bench"))
import run
workload, passes = sys.argv[1], int(sys.argv[2])
jobs = run.workloads.WORKLOADS[workload]
reference = run.workloads.load_reference(workload)
systems = run.workloads.load_systems(run.workloads.input_paths(jobs))
seed = run.workloads.DEFAULT_SEED
failed = sum(
    run.count_failed(run.check_pass(jobs, run.run_pass(jobs, systems, seed)[0], reference, seed)[1])
    for _ in range(passes)
)
print(failed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def rss_once(root: Path, args: argparse.Namespace, env: dict, flags: list[str]) -> dict[str, float]:
    """The peak RSS of a fresh interpreter after ``--rss-passes`` passes in ``root``."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", RSS_CODE, args.workload, str(args.rss_passes)],
        cwd=root, env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    failed, peak = done.stdout.split()[-2:]
    if int(failed):
        raise SystemExit(f"{root}: {failed} job runs failed their checks")
    return {"peak_rss_mb": float(peak)}


def end_to_end(root: Path) -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of each end-to-end metric in ``root``'s ``BENCHMARK.json``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}


def describe(name: str, values: list[float], unit: str) -> str:
    scale, unit = (1e3, "ms") if unit == "s" else (1.0, unit)
    q1, q2, q3 = (scale * q for q in statistics.quantiles(values, n=4))
    return f"{name:<7} median {q2:9.3f} {unit}   quartiles {q1:.3f} to {q3:.3f} {unit}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--pyc", choices=("none", "current"), default="none")
    parser.add_argument("--no-site", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--bench", type=float, metavar="SECONDS")
    mode.add_argument("--rss-passes", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.bench is not None and args.bench <= 0:
        parser.error("--bench must be positive")
    if args.rss_passes is not None and args.rss_passes < 1:
        parser.error("--rss-passes must be at least 1")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        prepare(root / "src", args.pyc)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    if args.pyc == "none":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    flags = ["-S"] if args.no_site else []

    if args.rss_passes is not None:
        metrics = {"peak_rss_mb": ("MB", "lower")}
        heading = f"peak RSS after {args.rss_passes} passes"

        def run(side: str) -> dict[str, float]:
            return rss_once(roots[side], args, env, flags)
    elif args.bench is None:
        code = setup_code(roots["change"] / "bench" / "run.py")
        paths = workload_inputs(roots["change"], args.workload)
        metrics = {"setup_s": ("s", "lower")}
        heading = f"set-up, {len(paths)} inputs"

        def run(side: str) -> dict[str, float]:
            return time_once(code, roots[side] / "src", paths, env, flags)
    else:
        metrics = end_to_end(roots["change"])
        heading = f"bench/run.py --seconds {args.bench:g} --trace 0"

        def run(side: str) -> dict[str, float]:
            return bench_once(roots[side], args, env, flags)

    samples: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            samples[side].append(run(side))

    site = "-S" if args.no_site else "site"
    print(f"workload {args.workload}: {heading}, {args.pairs} pairs, pyc {args.pyc}, {site}")
    for name, (unit, better) in metrics.items():
        values = {side: [s[name] for s in runs] for side, runs in samples.items()}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
        print(f"{name} ({better} is better)")
        for side in ("parent", "change"):
            print("  " + describe(side, values[side], unit))
        print(f"  change better in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
