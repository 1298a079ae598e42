from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from holderbounds.cli import main
from holderbounds.polysys import Polynomial

from conftest import (
    DEGENERATE_PAIR_TEXT,
    DEMO_SYSTEMS,
    HALF_DISK_TEXT,
    SPHERE_CUBIC_TEXT,
    random_convenient_system,
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
    # A literal past Python's 4,300-digit limit on integer strings.
    path = system_file("f1 = x + y\nf2 = 1" + "0" * 5000 + "*x^2 + y^2 - 1")
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: line 2, column 6: a number has too many digits\n"


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
    methods = set()
    # half_disk has only vertices and edges; sphere_cubic also has two
    # faces of dimension 2, which are searched.
    for text in (HALF_DISK_TEXT, SPHERE_CUBIC_TEXT):
        path = system_file(text)
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
        # A single-stage schedule halves the reported sample count per
        # searched face; a face decided in closed form draws no samples.
        assert all(f["samples"] == {"search": 128, "exact": 0}[f["method"]] for f in payload["faces"])
        methods.update(f["method"] for f in payload["faces"])
    assert methods == {"search", "exact"}


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


@pytest.mark.parametrize("command, text", [("verify", HALF_DISK_TEXT), ("certify", DEGENERATE_PAIR_TEXT)])
def test_huge_sample_count_exits_two_with_one_error_line(command, text, system_file, capsys):
    # numpy refuses an array of 10**30 samples before it allocates any;
    # that used to print an OverflowError traceback and exit 1.
    code = main([command, system_file(text), "--samples", str(10**30)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", ["f1 = 1", "f1 = -1", "f1 = 0"])
@pytest.mark.parametrize("command", ["analyze", "certify", "exponent", "verify", "slope", "quadratic"])
def test_system_without_variables_exits_cleanly(command, text, system_file, capsys):
    code = main([command, system_file(text), "--samples", "5"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    # quadratic used to print numpy's zero-size reduction error, and slope
    # asked for a --point of 0 coordinates, which the option cannot take.
    if command in ("exponent", "verify", "slope", "quadratic"):
        assert code == 2 and err.startswith("error: the system has no variables, so it has no ")


OUT_OF_RANGE = {"exponent": "f1 = 1e400*x^2 + y^2 - 1", "literal": f"f1 = 1{'0' * 400}*x^2 + y^2 - 1"}


@pytest.mark.parametrize("coefficient", sorted(OUT_OF_RANGE))
@pytest.mark.parametrize("command", ["analyze", "exponent", "certify", "verify", "slope", "quadratic"])
def test_coefficient_outside_the_float_range(command, coefficient, system_file, capsys):
    # Exact geometry and exponents need no floats, and neither does
    # certify on a system whose every face is decided in closed form;
    # every other float command reports the coefficient in one error line.
    code = main([command, system_file(OUT_OF_RANGE[coefficient]), "--samples", "5", "--point=1,1"])
    err = capsys.readouterr().err
    if command in ("analyze", "exponent", "certify"):
        assert code == 0 and err == ""
    else:
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_coefficient_outside_the_float_range_on_a_searched_face(system_file, capsys):
    # The 2-dimensional face is searched, and the search evaluates floats.
    code = main(["certify", system_file("f1 = 1e400*x^2 + y^2 + z^2 - 1"), "--samples", "5"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and len(err.strip().splitlines()) == 1


def _strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, which JSON lacks."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


# Per system: the (status, method, reason) of every face whose objective
# minimum is past the float range.  1e160 squared is: a vertex's closed-form
# minimum is about 5e320, and 1e400's is past it too.  Where 1e160
# multiplies a searched face's only mixed monomial, every sampled objective
# overflows.  1e200 multiplies an edge's, which the closed form decides
# exactly at the minimum 2.8 that the search could not evaluate.
PAST_THE_FLOAT_RANGE = {
    "f1 = 1e160*x^2 + y^2 - 1": [("nondegenerate_probable", "exact", None)],
    "f1 = 1e400*x^2 + y^2 - 1": [("nondegenerate_probable", "exact", None)],
    "f1 = x^2 + 1e200*x*y + y^2 - 1\nf2 = x - y": [],
    "f1 = x^2 + y^2 + z^2 + 1e160*x*y*z - 1": [("nondegenerate_probable", "exact", None)]
    + [("inconclusive", "search", "overflow")] * 3,
}


@pytest.mark.parametrize("text", sorted(PAST_THE_FLOAT_RANGE))
def test_certify_json_reports_an_infinite_minimum_as_null(text, system_file, capsys):
    # These used to exit 2 on the closed-form minimum, or to write
    # "objective_min": Infinity and call a face with no finite evidence
    # nondegenerate_probable.
    code, out = _run(capsys, "certify", system_file(text), "--format", "json")
    assert code == 0
    payload = _strict_json(out)
    faces = [f for f in payload["faces"] if f["objective_min"] is None]
    assert [(f["status"], f["method"], f["reason"]) for f in faces] == PAST_THE_FLOAT_RANGE[text]
    searched = any(f["reason"] for f in faces)
    assert payload["status"] == ("inconclusive" if searched else "nondegenerate_probable")


def _assert_runs_without_scipy(script: str, *args: str) -> None:
    # scipy costs more than half a second to import and tens of MB of
    # memory, and no command needs it.
    script += "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_analyze_and_certify_never_import_scipy():
    script = (
        "import sys\n"
        "import holderbounds\n"
        "from holderbounds.cli import RunConfig, run\n"
        "for command in ('analyze', 'certify'):\n"
        "    run(RunConfig(command=command, input_path=sys.argv[1], output_format='json'))\n"
    )
    _assert_runs_without_scipy(script, str(DEMO_SYSTEMS[0]))


def test_goodness_probe_never_imports_scipy():
    # The goodness probe runs its own Nelder-Mead.
    script = (
        "import sys\n"
        "from holderbounds import SamplePlan, parse_system, probe_goodness\n"
        "system = parse_system(open(sys.argv[1]).read())\n"
        "plan = SamplePlan(box=((-3.0, 3.0), (-3.0, 3.0)), count=500, rings=(2.0, 8.0, 32.0))\n"
        "report = probe_goodness(system, plan)\n"
        "assert all(r.floor is not None for r in report.rings), report\n"
    )
    _assert_runs_without_scipy(script, _demo("quadratic_bowl"))


def test_desk_verify_commands_never_import_scipy():
    # The anchor pool descends without scipy, and the distance oracle
    # projects by lockstep SQP alone, on regular S (the half disk and the
    # bowl) as on singular S (sphere_cubic and partition_n2).
    script = (
        "import sys\n"
        "from holderbounds.cli import RunConfig, run\n"
        "half_disk, bowl, sphere_cubic, partition = sys.argv[1:]\n"
        "box = ((-3.0, 3.0), (-3.0, 3.0))\n"
        "for seed in (1, 7, 42):\n"
        "    run(RunConfig(command='verify', input_path=half_disk, seed=seed, samples=500, box=box, output_format='json'))\n"
        "    run(RunConfig(command='verify', input_path=bowl, seed=seed, samples=500, rings=(2.0, 8.0, 32.0), output_format='json'))\n"
        "run(RunConfig(command='verify', input_path=sphere_cubic, samples=500, box=box + ((-3.0, 3.0),), output_format='json'))\n"
        "run(RunConfig(command='verify', input_path=partition, samples=500, box=box, output_format='json'))\n"
    )
    demos = ("half_disk", "quadratic_bowl", "sphere_cubic", "partition_n2")
    _assert_runs_without_scipy(script, *(_demo(name) for name in demos))


def test_python_dash_m_runs_the_command():
    src = str(Path(__file__).resolve().parent.parent / "src")
    pair = next(path for path in DEMO_SYSTEMS if path.stem == "degenerate_pair")
    done = subprocess.run(
        [sys.executable, "-m", "holderbounds", "certify", str(pair), "--samples", "64", "--format", "json"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout)["status"] == "degenerate"


@pytest.mark.parametrize(
    "argv, code",
    [(["analyze", "half_disk"], 0), (["certify", "degenerate_pair", "--samples", "64"], 1)],
)
def test_closed_stdout_exits_with_the_commands_code_and_no_traceback(argv, code):
    # A reader that has gone, as in "holderbounds ... | head -3", gave a
    # BrokenPipeError traceback and exit 1.
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "holderbounds", argv[0], _demo(argv[1]), *argv[2:], "--format", "json"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, "")


def _demo(stem: str) -> str:
    return str(next(path for path in DEMO_SYSTEMS if path.stem == stem))


def _assert_clean_exit(capsys, argv) -> int:
    """No traceback, a documented exit code, JSON without NaN or inf, and
    on exit 2 alone one stderr line, an ``error:`` or ``parse error:``."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code != 2:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the output of {argv}"))
        assert err == "", (argv, err)
    else:
        assert len(err.splitlines()) == 1 and err.startswith(("error:", "parse error:")), (argv, err)
    return code


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_point_and_ring_exit_cleanly(tmp_path, capsys):
    # The first two raised "attempt to get argmin of an empty sequence":
    # the values overflow to inf and NaN, and inf - inf left no component
    # active, so those ring samples are skipped.  On the cubic the values
    # stay finite but every gradient norm overflows to inf, which was
    # reported as a slope floor of Infinity.
    slope = ["slope", _demo("half_disk"), "--point=1e200,1e200", "--format", "json"]
    assert _assert_clean_exit(capsys, slope) == 2
    # The power ladder of x^2000 overflows at most samples.
    steep = tmp_path / "steep.poly"
    steep.write_text("f1 = x^2000 + y^2 - 1", encoding="utf-8")
    assert _assert_clean_exit(capsys, ["verify", str(steep), "--samples", "5", "--format", "json"]) == 2
    cubic = tmp_path / "cubic.poly"
    cubic.write_text("f1 = x^3 - 1", encoding="utf-8")
    # Every sample outside S overflowed: all 20 values on the bowl, and
    # the gradients at the cubic's 4 positive samples.
    cases = [(_demo("quadratic_bowl"), 1e160, 20, 0, 20), (str(cubic), 1e100, 5, 4, 4)]
    for path, radius, samples, positive, overflowed in cases:
        rings = ["verify", path, "--samples", str(samples), "--rings", str(radius), "--format", "json"]
        assert _assert_clean_exit(capsys, rings) == 0
        main(rings)
        [ring] = json.loads(capsys.readouterr().out)["verification"]["rings"]
        assert ring == {
            "R": radius,
            "positive_samples": positive,
            "slope_floor": None,
            "overflowed": overflowed,
        }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowed_ring_samples_are_counted(capsys):
    argv = ["verify", _demo("quadratic_bowl"), "--samples", "20", "--rings", "2,1e160"]
    assert main(argv + ["--format", "json"]) == 0
    rings = json.loads(capsys.readouterr().out)["verification"]["rings"]
    assert [(r["R"], r["overflowed"], r["positive_samples"]) for r in rings] == [
        (2.0, 0, 20),
        (1e160, 20, 0),
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  ring R=2: slope floor 4" in lines
    assert "  ring R=1e+160: slope floor n/a, 20 samples overflowed" in lines


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_finite_flags_never_raise(tmp_path, capsys):
    # Points and rings up to 1e300, and boxes from 1e100 to 1e300, on
    # random small systems.
    magnitudes = [0.0, 1e-300, 1.5, 1e10, 1e100, 1e155, 1e200, 1e300]
    rng = random.Random(2)
    codes = []
    for case in range(30):
        system = random_convenient_system(rng, max_vars=3, min_vars=1)
        path = tmp_path / f"case{case}.poly"
        path.write_text(system.to_text(), encoding="utf-8")
        kind = case % 3
        if kind == 0:
            point = ",".join(str(rng.choice([-1, 1]) * rng.choice(magnitudes)) for _ in range(system.n))
            argv = ["slope", str(path), f"--point={point}"]
        elif kind == 1:
            rings = sorted({rng.choice(magnitudes[1:]) for _ in range(rng.randint(1, 3))})
            argv = ["verify", str(path), "--samples", "1", "--rings", ",".join(map(str, rings))]
        else:
            m = rng.choice(magnitudes[4:])
            argv = ["verify", str(path), "--samples", "1", "--box=" + ",".join([f"{-m}:{m}"] * system.n)]
        codes.append(_assert_clean_exit(capsys, argv + ["--format", "json"]))
    assert {0, 2} <= set(codes)


# Past the float range either way, and past Python's 4,300-digit limit
# on integer strings as an integer and as a denominator.
EXTREME_LITERALS = ["1e400", "1e-400", "1" + "0" * 4300, "1/1" + "0" * 4300]


def _with_extreme_literal(system, rng) -> str:
    """``system.to_text()`` with one coefficient replaced by an extreme literal."""
    i = rng.randrange(system.p)
    f = system.polys[i]
    kappa = rng.choice(sorted(f.terms))
    rest = Polynomial({k: c for k, c in f.terms.items() if k != kappa}, system.n)
    monomial = "".join(f"*{name}^{k}" for name, k in zip(system.varnames, kappa) if k)
    term = f"{rng.choice('+-')} {rng.choice(EXTREME_LITERALS)}{monomial}"
    lines = system.to_text().splitlines()
    lines[i] = f"{system.names[i]} = {rest.to_string(system.varnames)} {term}"
    return "\n".join(lines)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_literals_never_raise(tmp_path, capsys):
    # 1e400*x^2 - y raised "math domain error": its closed-form critical
    # point, about 1e-400, read as 0.0.
    rng = random.Random(3)
    texts = ["f = 1e400*x^2 - y", "f = 1e400*x^2 - y\ng = x - 1"]
    texts += [_with_extreme_literal(random_convenient_system(rng, min_vars=1), rng) for _ in range(30)]
    codes = set()
    for case, text in enumerate(texts):
        path = tmp_path / f"case{case}.poly"
        path.write_text(text, encoding="utf-8")
        for command in (["analyze"], ["exponent"], ["certify"], ["verify", "--samples", "1"]):
            codes.add(_assert_clean_exit(capsys, [command[0], str(path), *command[1:], "--format", "json"]))
    assert {0, 2} <= codes


@pytest.mark.parametrize("name", ["quartic", "half_disk", "quadratic_bowl", "sphere_cubic"])
def test_verify_over_huge_boxes_finds_the_feasible_set(name, tmp_path, capsys):
    # Anchors from starts of size 1e10 take steps of that size.  A pool
    # descent with the polish's 1e3 step cap found no anchor on the quartic
    # and exited 2, "S is possibly empty".
    if name == "quartic":
        path = tmp_path / "quartic.poly"
        path.write_text("f1 = 2*x^4 + 2*y", encoding="utf-8")
        path, n, samples = str(path), 2, "1"
    else:
        path, samples = _demo(name), "5"
        n = 3 if name == "sphere_cubic" else 2
    box = "--box=" + ",".join(["-1e10:1e10"] * n)
    assert _assert_clean_exit(capsys, ["verify", path, "--samples", samples, box, "--format", "json"]) == 0


def test_overflowing_pool_draws_raise_no_warning(capsys):
    # In a box of 1e100 every draw's squared violation on the half disk
    # overflows; those draws are dropped silently and, none being left, S
    # reads as possibly empty.
    argv = ["verify", _demo("half_disk"), "--samples", "5", "--box=-1e100:1e100,-1e100:1e100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "S is possibly empty" in capsys.readouterr().err


def _random_payload(rng: random.Random, depth: int = 0):
    """A JSON value: nested containers (empty ones included) of text with
    non-ASCII and escaped characters, floats with NaN and +-inf, bools,
    None and ints past 2^63."""
    leaves = [
        lambda: rng.choice(["", "x", "é ü", "Hölder", "tab\there", 'q"uote\\', "☃\U0001f600", "\x00\x1f"]),
        lambda: rng.choice([0.0, -0.0, 1e-320, 1.5, -2.0 / 3.0, 1e300, float("nan"), float("inf"), float("-inf")]),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([0, -1, 7, 2**63, -(2**63) - 1, 10**40]),
    ]
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind < 5:
        return leaves[kind]()
    size = rng.choice([0, 1, 2, 5])
    if kind == 5:
        return {rng.choice(["a", "b", "é", "z1", "Z", "", "long key"]) + str(k): _random_payload(rng, depth + 1) for k in range(size)}
    if kind == 6:
        return [_random_payload(rng, depth + 1) for _ in range(size)]
    return [leaves[rng.choice([1, 2])]() for _ in range(size)] + [rng.uniform(-1.0, 1.0)]


def test_json_rendering_matches_json_dumps():
    from holderbounds.cli import _dumps

    rng = random.Random(11)
    for _ in range(400):
        payload = _random_payload(rng)
        assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)
    # Keys that are not text are written as json writes them, and a value
    # JSON lacks raises as json raises.
    for odd in ({2: None, 10: (1.5, "t"), 1: [[], {}]}, {1.5: 0, -0.5: 1}, {True: 1, False: 2}):
        assert _dumps(odd) == json.dumps(odd, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dumps({"a": {1, 2}})
