"""The package's public names load their modules on first access, and
the exact layer (parsing and Newton geometry) never loads numpy."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holderbounds

ROOT = Path(__file__).resolve().parent.parent

# The public names the package exported when it imported every module eagerly.
PUBLIC = {
    "bounds": ["ExponentReport", "QuadraticBound", "holder_exponent", "quadratic_bound", "stability_radius"],
    "newton": [
        "ConvenienceReport", "FaceAtInfinity", "NewtonPolytope", "SystemGeometry", "analyze_system",
        "decompose_face", "faces_at_infinity", "is_convenient", "min_face", "min_support",
        "minkowski_sum", "newton_polytope",
    ],
    "nondegen": [
        "CertifyConfig", "FaceCertificate", "MDeltaMatrix", "NondegVerdict", "build_m_delta",
        "certify_face", "certify_system", "minor_norm_objective", "normalized_minor_objective",
    ],
    "polysys": ["Polynomial", "PolySystem", "evaluate", "gradient", "parse_system", "principal_part"],
    "verify": [
        "DistanceConfig", "DistanceOracle", "GoodnessReport", "SamplePlan", "SlopeResult",
        "VerificationReport", "distance_to_S", "probe_goodness", "residual", "slope", "verify_bound",
    ],
}


def test_every_public_name_is_its_modules_object():
    assert sorted(holderbounds.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"holderbounds.{module}")
        for name in names:
            assert getattr(holderbounds, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from holderbounds import *", namespace)
    for name in holderbounds.__all__:
        assert namespace[name] is getattr(holderbounds, name), name


def test_dir_lists_every_public_name():
    listed = dir(holderbounds)
    assert set(holderbounds.__all__) <= set(listed) and "__version__" in listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        holderbounds.no_such_name
    assert not hasattr(holderbounds, "_CompiledMap")


def test_submodules_still_import_by_name():
    from holderbounds import evaluator, verify

    assert verify is importlib.import_module("holderbounds.verify")
    assert evaluator._CompiledMap.__module__ == "holderbounds.evaluator"


def test_exact_layer_never_imports_numpy():
    script = (
        "import sys\n"
        "import holderbounds\n"
        "for path in sys.argv[1:]:\n"
        "    with open(path, encoding='utf-8') as handle:\n"
        "        system = holderbounds.parse_system(handle.read())\n"
        "    holderbounds.analyze_system(system)\n"
        "    polytopes = [holderbounds.newton_polytope(f) for f in system.polys]\n"
        "    holderbounds.minkowski_sum(polytopes)\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy'))\n"
    )
    paths = sorted((ROOT / "demos" / "systems").glob("*.poly")) + sorted((ROOT / "bench" / "systems").glob("*.poly"))
    assert len(paths) >= 9
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, paths)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "flags, absent",
    [((), ["dataclasses", "inspect", "numpy"]), (("-S",), ["dataclasses", "inspect", "numpy", "typing"])],
    ids=["site", "no-site"],
)
def test_parsing_loads_no_dataclasses_inspect_or_numpy(flags, absent):
    # The cold path that bench/run.py times as setup_s.  A .pth file in
    # site-packages may import typing at start-up, so typing is checked
    # only under -S, which skips the site module.
    script = (
        "import sys\n"
        "import holderbounds\n"
        "for path in sys.argv[2:]:\n"
        "    with open(path, encoding='utf-8') as handle:\n"
        "        holderbounds.parse_system(handle.read())\n"
        "loaded = [name for name in sys.argv[1].split(',') if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    paths = sorted((ROOT / "demos" / "systems").glob("*.poly")) + sorted((ROOT / "bench" / "systems").glob("*.poly"))
    assert len(paths) >= 9
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, ",".join(absent), *map(str, paths)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
