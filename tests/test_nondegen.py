from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from holderbounds.cli import _axis_schedule
from holderbounds.newton import analyze_system
from holderbounds.nondegen import (
    CertifyConfig,
    MissingDecompositionError,
    _RankTest,
    _certify_faces,
    _descend,
    build_m_delta,
    certify_face,
    certify_system,
    euler_defects,
    exact_rank_deficient,
    minor_norm_objective,
    normalized_minor_objective,
)
from holderbounds.polysys import Polynomial, PolySystem, parse_system
from holderbounds.verify import DistanceConfig, DistanceOracle

from conftest import DEMO_SYSTEMS, random_convenient_system
from descent_oracle import certify_face_per_stage
from layout_oracle import PointMajorRankTest, _project_torus
from minor_oracle import MinorLoopMDelta

FAST = CertifyConfig(samples=512, multistarts=8, descent_iters=80, seed=42)


def _face_by_dim(geometry, dim, which=0):
    faces = [f for f in geometry.faces if f.dim == dim]
    return faces[which]


def _poly(text, nvars=None):
    f = parse_system(f"g = {text}").polys[0]
    if nvars is not None and f.nvars != nvars:
        raise AssertionError("unexpected variable count in fixture")
    return f


X2, Y2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)


def test_build_m_delta_vertex_face(half_disk):
    geometry = analyze_system(half_disk)
    vertex = next(
        f for f in geometry.faces if f.support_points == ((3, 0),)
    )
    M = build_m_delta(half_disk, vertex)
    x = X2
    x2 = X2 * X2
    zero = Polynomial.zero(2)
    assert M.entries == (
        (x, zero, x, zero),
        (2 * x2, zero, zero, x2),
    )
    assert M.weighted_degrees == (-1, -2)


def test_build_m_delta_edge_face(half_disk):
    geometry = analyze_system(half_disk)
    edge = _face_by_dim(geometry, 1)
    M = build_m_delta(half_disk, edge)
    assert M.entries == (
        (X2, Y2, X2 + Y2, Polynomial.zero(2)),
        (
            2 * X2 * X2,
            2 * Y2 * Y2,
            Polynomial.zero(2),
            X2 * X2 + Y2 * Y2,
        ),
    )


def test_build_m_delta_single_component_vertex():
    system = parse_system("f1 = x^3")
    geometry = analyze_system(system)
    (face,) = geometry.faces
    M = build_m_delta(system, face)
    assert M.entries == ((_poly("3*x^3", 1), _poly("x^3", 1)),)
    # Rank 1 wherever x != 0.
    assert minor_norm_objective(M, (0.5,)) > 0
    assert exact_rank_deficient(M, (Fraction(1, 2),)) is False


def test_build_m_delta_requires_decomposition(half_disk):
    from holderbounds.newton import faces_at_infinity, minkowski_sum, newton_polytope

    total = minkowski_sum([newton_polytope(f) for f in half_disk.polys])
    bare = faces_at_infinity(total)[0]
    with pytest.raises(MissingDecompositionError):
        build_m_delta(half_disk, bare)


@pytest.mark.parametrize(
    "fixture", ["half_disk", "sphere_cubic", "degenerate_pair"]
)
def test_euler_identity_symbolic(fixture, request):
    system = request.getfixturevalue(fixture)
    geometry = analyze_system(system)
    for face in geometry.faces:
        M = build_m_delta(system, face)
        for defect in euler_defects(M):
            assert defect.is_zero


def test_minor_objective_degenerate_edge(degenerate_pair):
    geometry = analyze_system(degenerate_pair)
    edge = _face_by_dim(geometry, 1)
    M = build_m_delta(degenerate_pair, edge)
    assert minor_norm_objective(M, (1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)
    value = minor_norm_objective(M, (1.0, -1.0))
    # Independent route: evaluate the exact entries and expand 2x2 minors.
    rows = [[float(e.evaluate((1, -1))) for e in row] for row in M.entries]
    expected = 0.0
    for a, b in itertools.combinations(range(4), 2):
        expected += (rows[0][a] * rows[1][b] - rows[0][b] * rows[1][a]) ** 2
    assert expected == pytest.approx(48.0)
    assert value == pytest.approx(expected, rel=1e-12)


def test_minor_objective_single_row_formula():
    system = parse_system("f1 = x^2*y + x*y^2")
    geometry = analyze_system(system)
    face = geometry.faces[-1]
    M = build_m_delta(system, face)
    x = (0.7, -1.3)
    f = system.polys[0]
    from holderbounds.polysys import principal_part

    fd = principal_part(f, face.decomposition[0])
    direct = sum(
        (x[j] * float(fd.partial(j).evaluate(x))) ** 2 for j in range(2)
    ) + float(fd.evaluate(x)) ** 2
    assert minor_norm_objective(M, x) == pytest.approx(direct, rel=1e-12)


def test_objective_scales_like_torus_action(half_disk, degenerate_pair):
    rng = random.Random(4)
    for system in (half_disk, degenerate_pair):
        geometry = analyze_system(system)
        for face in geometry.faces:
            M = build_m_delta(system, face)
            total_degree = sum(M.weighted_degrees)
            for _ in range(10):
                x = np.array([rng.uniform(0.3, 1.5) * rng.choice([-1, 1]) for _ in range(2)])
                t = rng.uniform(0.5, 2.0)
                scaled = np.array(
                    [t ** M.weights[j] * x[j] for j in range(2)]
                )
                lhs = minor_norm_objective(M, scaled)
                rhs = t ** (2 * total_degree) * minor_norm_objective(M, x)
                assert lhs == pytest.approx(rhs, rel=1e-8)


def test_objective_zero_iff_numerical_rank_drop(degenerate_pair):
    geometry = analyze_system(degenerate_pair)
    edge = _face_by_dim(geometry, 1)
    M = build_m_delta(degenerate_pair, edge)
    comp = _RankTest((M,))
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(1000, 2))
    X[np.abs(X) < 1e-3] = 1e-3
    # Plant rank-deficient points on the line x = y.
    X[::10, 1] = X[::10, 0]
    mats = comp.matrices(X.T)
    normalized = comp.normalized(X.T)
    for i in range(X.shape[0]):
        sv = np.linalg.svd(mats[..., i], compute_uv=False)
        rank = int((sv > 1e-9 * sv[0]).sum()) if sv[0] > 0 else 0
        assert (rank < M.p) == bool(normalized[i] < 1e-18)


def _random_faces(seeds):
    """(seed, system, rank-test matrix) for every face of random systems, p <= 3."""
    for seed in seeds:
        system = random_convenient_system(random.Random(seed), max_polys=3)
        for face in analyze_system(system).faces:
            yield seed, system, build_m_delta(system, face)


def test_gram_objective_matches_minor_oracle():
    # Cauchy-Binet: det(M M^T) equals the sum of squared maximal minors.
    for seed, system, M in _random_faces(range(25)):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.2, 1.5, size=(64, system.n))
        X *= rng.choice([-1.0, 1.0], size=X.shape)
        gram = _RankTest((M,)).normalized(X.T)
        minors = MinorLoopMDelta(M).normalized(X)
        assert (gram >= 0).all()
        np.testing.assert_allclose(gram, minors, rtol=1e-12, atol=0)


def test_compiled_matrices_match_exact_entries():
    for seed, system, M in _random_faces(range(10)):
        rng = random.Random(seed)
        for _ in range(3):
            point = tuple(
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), 10)
                for _ in range(system.n)
            )
            got = _RankTest((M,)).matrices(np.array([float(v) for v in point])[:, None])[..., 0]
            magnitude = tuple(abs(v) for v in point)
            for i, row in enumerate(M.entries):
                for j, entry in enumerate(row):
                    # Rounding of x = k/10 and of the sum is relative to the
                    # absolute-value polynomial, not to the (possibly
                    # cancelling) exact value.
                    bound = Polynomial(
                        {k: abs(c) for k, c in entry.terms.items()}, system.n
                    ).evaluate(magnitude)
                    error = abs(got[i, j] - float(entry.evaluate(point)))
                    assert error <= 1e-12 * float(bound)


def _descend_every_iteration(comp, starts, tau_axis, iters):
    """``nondegen._descend`` as it was before its fixed-point exit, with
    points held one per row (``comp`` is a ``PointMajorRankTest``).

    Also returns the first iteration at which no row improved with every
    step at the floor (``iters`` if that never happened).
    """
    X = _project_torus(starts.copy(), tau_axis)
    vals = comp.normalized(X)
    steps = np.full(X.shape[0], 0.25)
    n = comp.n
    fixed_at = iters
    for it in range(iters):
        batch, _ = X.shape
        proposals = np.repeat(X[:, None, :], 2 * n, axis=1)
        for j in range(n):
            proposals[:, 2 * j, j] += steps
            proposals[:, 2 * j + 1, j] -= steps
        proposals = _project_torus(proposals, tau_axis)
        cand = comp.normalized(proposals.reshape(-1, n)).reshape(batch, 2 * n)
        best = cand.min(axis=1)
        arg = cand.argmin(axis=1)
        improved = best < vals
        if fixed_at == iters and not improved.any() and (steps == 1e-12).all():
            fixed_at = it
        X[improved] = proposals[improved, arg[improved]]
        vals = np.where(improved, best, vals)
        steps = np.where(improved, steps * 1.4, steps * 0.6)
        steps = np.maximum(steps, 1e-12)
    return X, vals, fixed_at


def test_descend_exit_matches_full_descent():
    # One mixed-floor batch against the full descent run once per floor.
    systems = [parse_system(path.read_text()) for path in DEMO_SYSTEMS]
    systems += [random_convenient_system(random.Random(seed), max_polys=3) for seed in range(1, 5)]
    iters = 200
    floors = (1e-1, 1e-3)
    early = 0
    for index, system in enumerate(systems):
        for face in analyze_system(system).faces:
            matrix = build_m_delta(system, face)
            comp = _RankTest((matrix,))
            rng = np.random.default_rng(index)
            starts = rng.uniform(-1.0, 1.0, size=(8, system.n))
            column = np.repeat(floors, len(starts))[:, None]
            X, vals = _descend(comp, np.vstack([starts] * len(floors)), column, iters)
            for k, tau_axis in enumerate(floors):
                rows = slice(k * len(starts), (k + 1) * len(starts))
                X_full, vals_full, fixed_at = _descend_every_iteration(
                    PointMajorRankTest((matrix,)), starts, tau_axis, iters
                )
                np.testing.assert_array_equal(X[rows], X_full)
                np.testing.assert_array_equal(vals[rows], vals_full)
                early += fixed_at < iters
    # The exit must actually be taken for the comparison to mean anything.
    assert early > 0


def test_descend_rows_do_not_depend_on_their_batch():
    # One descent per face over every stage's starts rests on this: a row
    # ends bitwise where it ends when descended alone, whatever its floor.
    systems = [parse_system(path.read_text()) for path in DEMO_SYSTEMS]
    systems += [random_convenient_system(random.Random(seed), max_polys=3) for seed in (5, 6)]
    for index, system in enumerate(systems):
        for face in analyze_system(system).faces:
            comp = _RankTest((build_m_delta(system, face),))
            rng = np.random.default_rng(100 + index)
            starts = rng.uniform(-1.0, 1.0, size=(9, system.n))
            column = rng.choice([1e-1, 1e-2, 1e-3], size=(9, 1))
            X, vals = _descend(comp, starts, column, 200)
            for i in range(len(starts)):
                X_one, vals_one = _descend(comp, starts[i : i + 1], column[i : i + 1], 200)
                np.testing.assert_array_equal(X[i : i + 1], X_one)
                np.testing.assert_array_equal(vals[i : i + 1], vals_one)


ORACLE_CASES = [
    (seed, tau_axis)
    for seed in (1, 7, 42)
    # Schedules of length 1, 3 and 4.
    for tau_axis in (0.5, None, 1e-4)
]


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_certify_face_matches_per_stage_oracle(case):
    # One descent over every stage's starts gives the same certificates as
    # one descent per stage: same samples, objective, witness and status.
    # With multistarts=1 the per-stage search evaluated each start as a
    # one-row batch, which rounds differently (see the batch test below).
    seed, tau_axis = ORACLE_CASES[case]
    cfg = CertifyConfig(
        samples=64,
        multistarts=3,
        descent_iters=100,
        seed=seed,
        tau_axis_schedule=_axis_schedule(tau_axis),
    )
    systems = [parse_system(path.read_text()) for path in DEMO_SYSTEMS]
    systems += [random_convenient_system(random.Random(2 * case + k)) for k in range(2)]
    for system in systems:
        for index, face in enumerate(analyze_system(system).faces):
            M = build_m_delta(system, face)
            assert _certify_faces([M], [index], cfg)[0] == certify_face_per_stage(M, cfg, index)


def test_certify_half_disk_nondegenerate(half_disk):
    verdict = certify_system(half_disk, FAST)
    assert verdict.status == "nondegenerate_probable"
    assert verdict.convenient
    assert len(verdict.faces) == 3
    for face in verdict.faces:
        assert face.status == "nondegenerate_probable"
        assert face.objective_min > 1e-6
        # Every face of an n = 2 system is a vertex or an edge: decided in
        # closed form, with no samples.
        assert face.method == "exact" and face.samples == 0


def test_certify_degenerate_pair(degenerate_pair):
    verdict = certify_system(degenerate_pair, FAST)
    assert verdict.status == "degenerate"
    bad = [f for f in verdict.faces if f.status == "degenerate"]
    assert len(bad) == 1
    witness = bad[0].witness
    assert witness is not None
    assert abs(witness[0] - witness[1]) < 1e-4
    assert min(abs(witness[0]), abs(witness[1])) > 0.05
    assert bad[0].objective_min < 1e-12
    # The witness rounds to an exactly rank-deficient rational point.
    assert bad[0].witness_exact is not None


def test_certify_perturbed_pair(degenerate_pair_perturbed):
    verdict = certify_system(degenerate_pair_perturbed, FAST)
    assert verdict.status == "nondegenerate_probable"


def test_certify_sphere_cubic_all_faces(sphere_cubic):
    cfg = CertifyConfig(samples=256, multistarts=6, descent_iters=60, seed=7)
    verdict = certify_system(sphere_cubic, cfg)
    assert len(verdict.faces) == 13
    assert verdict.status == "nondegenerate_probable"


def test_certify_config_needs_an_axis_floor():
    # Without a stage there would be no sample and no descent to report.
    with pytest.raises(ValueError, match="tau_axis_schedule"):
        CertifyConfig(tau_axis_schedule=())


@pytest.mark.parametrize(
    "field, value",
    [
        ("samples", 0),
        ("samples", -5),
        ("multistarts", 0),
        ("descent_iters", -1),
        ("tau_zero", 0.0),
        ("tau_zero", -1e-12),
        ("tau_zero", float("nan")),
        ("tau_zero", float("inf")),
        ("tau_axis_schedule", (1e-1, 0.0)),
        ("tau_axis_schedule", (1.0,)),
        ("tau_axis_schedule", (float("nan"),)),
        ("witness_floor", float("nan")),
        ("witness_floor", -0.05),
        ("witness_floor", 1.0),
        ("witness_floor", float("inf")),
    ],
)
def test_certify_config_rejects_bad_values(field, value):
    # samples=-5 used to draw one sample per orthant, multistarts=0 died
    # in numpy's argmin and a NaN floor certified every face; a NaN
    # witness_floor made every numerical witness inconclusive and a
    # negative one made every one interior.
    with pytest.raises(ValueError, match=field):
        CertifyConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("multistarts", 0),
        ("grid_points", 0),
        ("stall_limit", 0),
        ("polish_iters", -1),
        ("tau_feas", 0.0),
        ("tau_feas", -1.0),
        ("tau_feas", float("nan")),
        ("tau_feas", float("inf")),
        ("search_box", ((-1.0, float("inf")),)),
        ("search_box", ((float("nan"), 1.0),)),
        ("search_box", ((-1.0, 1.0), (2.0, 1.0))),
        ("known_feasible", ((0.0, float("nan")),)),
        ("known_feasible", ((float("-inf"), 0.0),)),
    ],
)
def test_distance_config_rejects_bad_values(field, value):
    # A NaN or negative tau_feas counted no point feasible and a grid of 0
    # points drew none, so the oracle reported a nonempty S possibly empty.
    with pytest.raises(ValueError, match=field):
        DistanceConfig(**{field: value})


def test_distance_config_accepts_edge_values():
    cfg = DistanceConfig(
        multistarts=1, grid_points=1, stall_limit=1, polish_iters=0, search_box=((1.0, 1.0),)
    )
    assert DistanceOracle(parse_system("f = x - 1"), cfg).distance((3.0,)).distance == 2.0


def test_certify_config_accepts_edge_values():
    cfg = CertifyConfig(
        samples=1, multistarts=1, descent_iters=0, tau_axis_schedule=(0.999,), witness_floor=0.0
    )
    assert certify_system(parse_system("f = x^2 + y^2"), cfg).status == "nondegenerate_probable"


def test_certify_reports_missing_convenience():
    system = parse_system("f1 = x*y + x")  # no pure power of y
    verdict = certify_system(system, FAST)
    assert not verdict.convenient
    assert verdict.missing_axes == ((1,),)


def test_certify_reproducible_bitwise(degenerate_pair):
    a = certify_system(degenerate_pair, FAST)
    b = certify_system(degenerate_pair, FAST)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


def test_certify_seed_changes_search_not_verdict(half_disk):
    a = certify_system(half_disk, CertifyConfig(samples=512, seed=1))
    b = certify_system(half_disk, CertifyConfig(samples=512, seed=2))
    assert a.status == b.status == "nondegenerate_probable"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("f1 = x^2 + y^2", "nondegenerate_probable"),
        ("f1 = x^2 - 2*x*y + y^2", "degenerate"),
    ],
)
def test_single_polynomial_grid_cross_check(text, expected):
    system = parse_system(text)
    verdict = certify_system(system, FAST)
    assert verdict.status == expected
    # Dense torus grid oracle on the full-support face.
    geometry = analyze_system(system)
    edge = next(f for f in geometry.faces if f.dim == 1)
    M = build_m_delta(system, edge)
    grid = [
        (a / 10, b / 10)
        for a in range(-10, 11)
        for b in range(-10, 11)
        if a != 0 and b != 0
    ]
    low = min(normalized_minor_objective(M, g) for g in grid)
    if expected == "degenerate":
        assert low < 1e-18
    else:
        assert low > 1e-6


def test_certify_face_ambiguous_band_is_inconclusive(sphere_cubic):
    # Inflate tau_zero so a genuinely positive objective minimum lands in
    # the ambiguous band (tau_zero, 10*tau_zero].  The band applies to
    # searched faces only, so the face is 2-dimensional.
    geometry = analyze_system(sphere_cubic)
    M = build_m_delta(sphere_cubic, _face_by_dim(geometry, 2))
    floor = certify_face(M, FAST).objective_min
    banded = CertifyConfig(
        samples=FAST.samples,
        multistarts=FAST.multistarts,
        descent_iters=FAST.descent_iters,
        seed=FAST.seed,
        tau_zero=floor / 5.0,
    )
    out = certify_face(M, banded)
    assert out.status == "inconclusive"
    assert out.witness is None


def test_slope_dimension_mismatch(half_disk):
    from holderbounds.verify import slope

    with pytest.raises(ValueError, match="2-variable"):
        slope(half_disk, (1.0,))
