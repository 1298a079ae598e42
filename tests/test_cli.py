from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holderbounds.cli import main

from conftest import (
    DEGENERATE_PAIR_TEXT,
    DEMO_SYSTEMS,
    HALF_DISK_TEXT,
    SPHERE_CUBIC_TEXT,
)


@pytest.fixture
def system_file(tmp_path):
    def write(text: str, name: str = "system.poly") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_analyze_half_disk_lists_three_faces(system_file, capsys):
    path = system_file(HALF_DISK_TEXT)
    code, out = _run(capsys, "analyze", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["faces_at_infinity"]) == 3
    assert payload["convenient"] is True
    supports = {tuple(map(tuple, f["support"])) for f in payload["faces_at_infinity"]}
    assert ((3, 0),) in supports and ((0, 3),) in supports
    for face in payload["faces_at_infinity"]:
        assert len(face["decomposition"]) == 2


def test_exponent_sphere_cubic(system_file, capsys):
    path = system_file(SPHERE_CUBIC_TEXT)
    code, out = _run(capsys, "exponent", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "1/3557763"
    assert payload["H"] == "7115526"
    assert payload["beta"] == "1"


def test_certify_degenerate_exits_one(system_file, capsys):
    path = system_file(DEGENERATE_PAIR_TEXT)
    code, out = _run(capsys, "certify", path, "--samples", "512", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "degenerate"
    bad = [f for f in payload["faces"] if f["status"] == "degenerate"]
    assert bad and bad[0]["witness"] is not None
    assert {"face", "status", "witness", "objective_min", "samples", "seed"} <= set(
        bad[0]
    )


def test_certify_nondegenerate_exits_zero(system_file, capsys):
    path = system_file(HALF_DISK_TEXT)
    code, out = _run(capsys, "certify", path, "--samples", "256", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "nondegenerate_probable"


def test_verify_runs_certification_first(system_file, capsys):
    path = system_file(HALF_DISK_TEXT)
    code, out = _run(
        capsys,
        "verify",
        path,
        "--samples",
        "80",
        "--box",
        "-3:3,-3:3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis_established"] is True
    assert payload["verification"]["fitted_c"] > 0
    assert payload["verification"]["violations"] == 0
    assert payload["exponent"]["alpha"] == "1/18522"


def test_verify_warns_on_degenerate_and_exits_one(system_file, capsys):
    path = system_file(DEGENERATE_PAIR_TEXT)
    code, out = _run(
        capsys, "verify", path, "--samples", "40", "--box", "-2:2,-2:2"
    )
    assert code == 1
    assert "WARNING" in out
    assert "not established" in out


def test_slope_point_flag(system_file, capsys):
    path = system_file(HALF_DISK_TEXT)
    code, out = _run(
        capsys, "slope", path, "--point", "-2,0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] == pytest.approx(4.0, abs=1e-9)
    assert payload["active"] == ["f2"]
    # Missing/odd points are usage errors.
    assert main(["slope", path]) == 2
    assert main(["slope", path, "--point", "1,2,3"]) == 2


def test_quadratic_subcommand(system_file, capsys):
    path = system_file("f = x^2 + 2*y^2 - 3")
    code, out = _run(capsys, "quadratic", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_min_nonzero"] == pytest.approx(2.0)
    assert payload["constant"] == pytest.approx(1.0)
    # Degree > 2 and p > 1 are usage errors.
    assert main(["quadratic", system_file("f = x^3", "cubic.poly")]) == 2
    assert main(["quadratic", system_file("f=x\ng=y", "two.poly")]) == 2


def test_parse_error_exit_code(system_file, capsys):
    path = system_file("f1 = x +")
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert "parse error" in captured.err


def test_missing_file_exit_code():
    assert main(["analyze", "/no/such/file.poly"]) == 2


def test_json_byte_identical_and_text_agrees(system_file, capsys, tmp_path):
    path = system_file(HALF_DISK_TEXT)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["certify", path, "--samples", "256", "--format", "json"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    code, text = _run(capsys, "certify", path, "--samples", "256")
    # Text output carries the same numbers at 6 significant digits.
    for face in payload["faces"]:
        assert f"{face['objective_min']:.6g}" in text


def test_verify_rings_flag(system_file, capsys):
    path = system_file(HALF_DISK_TEXT)
    code, out = _run(
        capsys,
        "verify",
        path,
        "--samples",
        "40",
        "--box",
        "-3:3,-3:3",
        "--rings",
        "10,50",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    rings = payload["verification"]["rings"]
    assert [r["R"] for r in rings] == [10.0, 50.0]
    assert all(r["slope_floor"] > 0 for r in rings)


def test_tau_flags_reach_certification(system_file, capsys):
    path = system_file(HALF_DISK_TEXT)
    code, out = _run(
        capsys,
        "certify",
        path,
        "--samples",
        "128",
        "--tau-axis",
        "0.2",
        "--tau-zero",
        "1e-14",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "nondegenerate_probable"
    # A single-stage schedule halves the reported sample count per face.
    assert all(f["samples"] == 128 for f in payload["faces"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{path}", "--box", "-3:3"],
        ["verify", "{path}", "--box", "3:-3,3:-3"],
        ["verify", "{path}", "--rings", "0,1"],
        ["verify", "{path}", "--samples", "-5"],
        ["verify", "{path}", "--samples", "0"],
        ["certify", "{path}", "--samples", "0"],
        ["analyze", "{path}", "--out", "{missing}"],
        ["certify", "{path}", "--workers", "2"],
        ["certify", "{path}", "--seed", "-1"],
        ["certify", "{path}", "--tau-axis", "nan"],
        ["certify", "{path}", "--tau-axis", "0"],
        ["certify", "{path}", "--tau-axis", "1"],
        ["verify", "{path}", "--tau-axis", "-0.1"],
        ["certify", "{path}", "--tau-zero", "nan"],
        ["certify", "{path}", "--tau-zero", "0"],
        ["certify", "{path}", "--tau-zero", "-1e-12"],
        ["certify", "{path}", "--tau-zero", "inf"],
        ["verify", "{path}", "--box", "nan:1,-3:3"],
        ["verify", "{path}", "--box=-inf:3,-3:3"],
        ["slope", "{path}", "--point", "nan,0"],
        ["slope", "{path}", "--point", "inf,0"],
        ["verify", "{path}", "--rings", "nan,2"],
        ["verify", "{path}", "--rings", "2,inf"],
    ],
    ids=[
        "box-dimension",
        "box-reversed",
        "rings-zero",
        "samples-negative",
        "samples-zero-verify",
        "samples-zero-certify",
        "out-missing-dir",
        "workers-removed",
        "seed-negative",
        "tau-axis-nan",
        "tau-axis-zero",
        "tau-axis-one",
        "tau-axis-negative-verify",
        "tau-zero-nan",
        "tau-zero-zero",
        "tau-zero-negative",
        "tau-zero-inf",
        "box-nan",
        "box-inf",
        "point-nan",
        "point-inf",
        "rings-nan",
        "rings-inf",
    ],
)
def test_bad_input_exits_two_with_error_line(argv, system_file, tmp_path, capsys):
    path = system_file(HALF_DISK_TEXT)
    missing = str(tmp_path / "no_such_dir" / "x.json")
    argv = [a.format(path=path, missing=missing) for a in argv]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_and_certify_never_import_scipy():
    # Only verify's SLSQP projections need scipy.optimize, which costs more
    # than half a second to import and tens of MB of memory.
    script = (
        "import sys\n"
        "import holderbounds\n"
        "from holderbounds.cli import RunConfig, run\n"
        "for command in ('analyze', 'certify'):\n"
        "    run(RunConfig(command=command, input_path=sys.argv[1], output_format='json'))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(DEMO_SYSTEMS[0])],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_goodness_probe_never_imports_scipy():
    # The goodness probe runs its own Nelder-Mead; only the distance
    # oracle loads scipy.
    script = (
        "import sys\n"
        "from holderbounds import SamplePlan, parse_system, probe_goodness\n"
        "system = parse_system(open(sys.argv[1]).read())\n"
        "plan = SamplePlan(box=((-3.0, 3.0), (-3.0, 3.0)), count=500, rings=(2.0, 8.0, 32.0))\n"
        "report = probe_goodness(system, plan)\n"
        "assert all(r.floor is not None for r in report.rings), report\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    bowl = next(path for path in DEMO_SYSTEMS if path.stem == "quadratic_bowl")
    done = subprocess.run(
        [sys.executable, "-c", script, str(bowl)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
