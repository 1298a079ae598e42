"""Record one point of the BENCH trajectory: end-to-end, traced and per-layer timings of a tree.

Usage:
    python tools/bench_file.py TREE --out BENCH_<n>.json [--compare PREVIOUS]
        [--pytest-log LOG] [--seconds 10] [--runs 3]

TREE is a checkout of the repository.  Its ``src`` is compiled to
``.pyc`` first, as ``tools/setup_ab.py --pyc current`` does, and every
measurement runs in a fresh interpreter with TREE as the working
directory.  The file records:

- ``machine``: cores, platform, Python and numpy versions, and TREE's
  git commit (null outside a git checkout) with whether its work tree
  had changes;
- ``end_to_end``: per workload of ``bench/run.py``, the metrics of
  ``--runs`` fresh ``--trace 0`` runs of ``--seconds`` each, and their
  medians;
- ``traced``: per workload, the layer metrics of one ``--trace 1`` run;
- ``layers``: the north star's layer timings from direct library calls
  (``LAYERS`` below): facet enumeration, the Minkowski sum, face
  decomposition, the rank-test objective at 10^4 points, one descent
  run, one distance-oracle query, one ``distances`` call on the 500
  samples of the desk benchmark's half_disk verify job, and one slope.
  A layer whose API TREE lacks is recorded with its error;
- ``tier1``: from a pytest log (``--pytest-log``), the counts, the wall
  time and the slowest durations pytest printed.

``--compare PREVIOUS`` prints, for every number both files hold, the
ratio of this file's value to the previous one's, and stores them.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("desk", "geometry", "certify")

# Run in TREE with TREE/src first on the path: prints one JSON object,
# layer name -> {"value", "unit", "what"[, "error"]}.
LAYERS = r'''
import json, statistics, sys, time
sys.path.insert(0, "src")
import numpy as np
from holderbounds import newton, nondegen, verify
from holderbounds.polysys import parse_system

REPEATS = 9
out = {}


def read(path):
    with open(path, encoding="utf-8") as handle:
        return parse_system(handle.read())


def layer(name, what, make, per=1):
    """Median over REPEATS of fn(), divided by per; make() builds fn."""
    try:
        fn = make()
        fn()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = {"value": statistics.median(times) / per, "unit": "s", "what": what}
    except Exception as err:  # an API this tree does not have
        out[name] = {"value": None, "unit": "s", "what": what, "error": f"{type(err).__name__}: {err}"}


stress = read("bench/systems/stress_n4p2.poly")
sphere = read("demos/systems/sphere_cubic.poly")
half = read("demos/systems/half_disk.poly")
box = ((-3.0, 3.0), (-3.0, 3.0))

layer("newton.facets_s", "newton_polytope of every stress_n4p2 component",
      lambda: lambda: [newton.newton_polytope(f) for f in stress.polys])


def minkowski():
    polytopes = [newton.newton_polytope(f) for f in stress.polys]
    return lambda: newton.minkowski_sum(polytopes)


layer("newton.minkowski_s", "minkowski_sum of the stress_n4p2 polytopes", minkowski)


def decompose():
    geometry = newton.analyze_system(stress)
    return lambda: [newton.decompose_face(face, geometry.polytopes) for face in geometry.faces]


layer("newton.decompose_s", "decompose_face on every stress_n4p2 face at infinity", decompose)


def rank_test():
    face = max(newton.analyze_system(sphere).faces, key=lambda face: face.dim)
    test = nondegen._RankTest((nondegen.build_m_delta(sphere, face),))
    return test


def objective():
    test, X = rank_test(), np.random.default_rng(0).standard_normal((sphere.n, 10_000))
    return lambda: test.normalized(X, 0)


layer("nondegen.objective_1e4_s",
      "normalized rank-test objective at 10^4 points of sphere_cubic's largest face", objective)


def descent():
    test, cfg = rank_test(), nondegen.CertifyConfig()
    start = np.random.default_rng(1).standard_normal((1, sphere.n))
    return lambda: nondegen._descend(test, start, cfg.tau_axis_schedule[-1], cfg.descent_iters)


layer("nondegen.descent_s", "one descent run of descent_iters steps from one start on that face",
      descent)


def oracle():
    found = verify.DistanceOracle(half, verify.DistanceConfig(seed=42, search_box=box))
    found.feasible_pool()
    return found


QUERIES = np.random.default_rng(2).uniform(-3.0, 3.0, size=(20, 2))


def one_query():
    found = oracle()
    return lambda: [found.distance(x) for x in QUERIES]


layer("verify.distance_query_s", "one half_disk distance query (the mean of 20)", one_query,
      per=len(QUERIES))


def desk_distances():
    # The samples of verify_bound(half_disk, SamplePlan(box, count=500, seed=42)).
    found, comp = oracle(), verify._CompiledSystem(half)
    rng = np.random.default_rng(np.random.SeedSequence(42))
    X = verify._stratified_box_samples(rng, box, 375)
    X = np.vstack([X, verify._boundary_biased_samples(rng, comp, X, found.feasible_pool(), 125)])
    return lambda: found.distances(X)


layer("verify.desk_distances_s", "one distances call on the desk half_disk verify job's 500 samples",
      desk_distances)
layer("verify.slope_s", "slope of half_disk at (-2, 0)",
      lambda: lambda: verify.slope(half, (-2.0, 0.0)))
print(json.dumps(out))
'''


def run(tree: Path, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, *args], cwd=tree, capture_output=True, text=True, timeout=1800, check=True,
    )
    return done.stdout


def git(tree: Path, *args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=tree, capture_output=True, text=True, timeout=60, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def machine(tree: Path) -> dict:
    import numpy

    commit = git(tree, "rev-parse", "HEAD")
    status = git(tree, "status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "worktree_clean": None if status is None else status == "",
    }


def bench_metrics(tree: Path, workload: str, trace: int, seconds: float) -> dict:
    """The metrics of one ``bench/run.py`` run, with its ``correct`` and ``failed``."""
    stdout = run(tree, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
                 "--trace", str(trace))
    result = json.loads(stdout.splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], "metrics": values}


def end_to_end(tree: Path, seconds: float, runs: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        results = [bench_metrics(tree, workload, 0, seconds) for _ in range(runs)]
        names = results[0]["metrics"]
        out[workload] = {
            "correct": all(r["correct"] and not r["failed"] for r in results),
            "runs": [r["metrics"] for r in results],
            "median": {name: statistics.median(r["metrics"][name] for r in results) for name in names},
        }
    return out


def tier1(log: Path) -> dict:
    """Counts, wall time and slowest durations of a pytest run, from its log."""
    text = log.read_text(encoding="utf-8", errors="replace")
    summary = [line for line in text.splitlines() if re.search(r"\bin [\d.]+s\b", line)]
    out: dict = {"wall_s": None, "counts": {}, "slowest": []}
    if summary:
        last = summary[-1]
        out["wall_s"] = float(re.search(r"\bin ([\d.]+)s\b", last).group(1))
        out["counts"] = {kind: int(count) for count, kind in re.findall(r"(\d+) ([a-z]+)", last)}
    for seconds, phase, test in re.findall(r"^([\d.]+)s (call|setup|teardown) +(\S+)$", text, re.M):
        out["slowest"].append({"test": test, "phase": phase, "s": float(seconds)})
    return out


def numbers(data, prefix: str = "") -> dict[str, float]:
    """Every number in ``data`` by its dotted path, runs and ratios left out."""
    out = {}
    if isinstance(data, dict):
        for key, value in data.items():
            if key not in ("runs", "compared_to", "machine", "slowest"):
                out.update(numbers(value, f"{prefix}{key}."))
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        out[prefix[:-1]] = float(data)
    return out


def compare(current: dict, previous: dict) -> dict[str, float]:
    now, before = numbers(current), numbers(previous)
    return {key: now[key] / before[key] for key in now if before.get(key)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, metavar="PREVIOUS")
    parser.add_argument("--pytest-log", type=Path, metavar="LOG")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs must be at least 1 and --seconds positive")
    tree = args.tree.resolve()
    if not compileall.compile_dir(str(tree / "src"), quiet=1):
        raise SystemExit(f"compileall failed on {tree / 'src'}")

    record = {
        "machine": machine(tree),
        "settings": {"seconds": args.seconds, "runs": args.runs, "pyc": "current"},
        "end_to_end": end_to_end(tree, args.seconds, args.runs),
        "traced": {w: bench_metrics(tree, w, 1, args.seconds)["metrics"] for w in WORKLOADS},
        "layers": json.loads(run(tree, "-c", LAYERS).splitlines()[-1]),
        "tier1": tier1(args.pytest_log) if args.pytest_log else None,
    }
    if args.compare:
        ratios = compare(record, json.loads(args.compare.read_text(encoding="utf-8")))
        record["compared_to"] = {"file": args.compare.name, "ratios": ratios}
        width = max(map(len, ratios), default=0)
        for key, ratio in ratios.items():
            print(f"{key:<{width}}  {ratio:8.4f}")
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
