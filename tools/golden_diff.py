"""The 42 golden runs of two trees, compared field by field.

Usage: python tools/golden_diff.py PARENT CHANGE

Runs the commands whose output ``tests/test_golden.py`` hashes in each
tree, with that tree's ``src`` and fixtures: ``certify --format json`` on
the six demos and ``rand_n3p2_s8``, and ``verify --format json --samples
300 --box -3:3,...`` on the six demos and on quadratic_bowl with
``--rings 2,8,32``, each at seeds 1, 7 and 42.  Each tree runs in one
subprocess.  For every run whose output differs it prints the change's
SHA-256, then each JSON path that differs with both values.  Last, per
field name, it prints the largest relative move of a number, or how many
values of another kind changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DEMOS = [
    "degenerate_pair",
    "degenerate_pair_perturbed",
    "half_disk",
    "partition_n2",
    "quadratic_bowl",
    "sphere_cubic",
]
SEEDS = (1, 7, 42)

# Run in each tree: read the runs from stdin, write [exit code, stdout] per run.
CHILD = r"""
import contextlib, io, json, sys
from holderbounds.cli import main
from holderbounds.polysys import parse_system
out = []
for command, path, seed, rings in json.load(sys.stdin):
    argv = [command, path, "--seed", str(seed), "--format", "json"]
    if command == "verify":
        n = parse_system(open(path, encoding="utf-8").read()).n
        argv += ["--samples", "300", "--box", ",".join(["-3:3"] * n)] + (["--rings", "2,8,32"] if rings else [])
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    out.append([code, buffer.getvalue()])
json.dump(out, sys.stdout)
"""


def runs() -> list[tuple[str, str, int, bool]]:
    out = []
    for seed in SEEDS:
        for name in DEMOS:
            out.append(("certify", f"demos/systems/{name}.poly", seed, False))
        out.append(("certify", "bench/systems/rand_n3p2_s8.poly", seed, False))
        for name in DEMOS:
            out.append(("verify", f"demos/systems/{name}.poly", seed, False))
        out.append(("verify", "demos/systems/quadratic_bowl.poly", seed, True))
    return out


def outputs(tree: Path, plan) -> list[tuple[int, str]]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(plan),
        capture_output=True,
        text=True,
        cwd=tree,
        env=env,
        check=True,
    )
    return [tuple(pair) for pair in json.loads(done.stdout)]


def differences(a, b, path: str = ""):
    """(path, field, a, b) for every leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            yield from differences(a.get(key), b.get(key), f"{path}.{key}" if path else str(key))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{k}]")
    elif a != b or type(a) is not type(b):
        yield path, path.rsplit(".", 1)[-1].split("[", 1)[0], a, b


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    plan = runs()
    parent, change = (outputs(Path(tree).resolve(), plan) for tree in argv[1:])
    largest: dict[str, tuple[float, str]] = {}
    other: dict[str, int] = {}
    same = 0
    for (command, path, seed, rings), (code_a, out_a), (code_b, out_b) in zip(plan, parent, change):
        if (code_a, out_a) == (code_b, out_b):
            same += 1
            continue
        label = f"{command} {Path(path).stem}{'+rings' if rings else ''} seed {seed}"
        digest = hashlib.sha256(out_b.encode("utf-8")).hexdigest()
        print(f"{label}: sha256 {digest}")
        if code_a != code_b:
            print(f"  exit code: {code_a} -> {code_b}")
        for where, field, a, b in differences(json.loads(out_a), json.loads(out_b)):
            print(f"  {where}: {a!r} -> {b!r}")
            if _number(a) and _number(b):
                move = abs(a - b) / max(abs(a), abs(b))
                if move >= largest.get(field, (-1.0, ""))[0]:
                    largest[field] = (move, f"{label} {where}")
            else:
                other[field] = other.get(field, 0) + 1
    print(f"{same} of {len(plan)} runs identical")
    for field in sorted(set(largest) | set(other)):
        parts = []
        if field in largest:
            move, where = largest[field]
            parts.append(f"largest relative move {move:.3g} ({where})")
        if field in other:
            parts.append(f"{other[field]} non-numeric changes")
        print(f"{field}: " + "; ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
