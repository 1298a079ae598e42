"""The lockstep distance oracle against the sequential one it replaced.

``distance_oracle.SequentialDistanceOracle`` projects one query at a
time, one SLSQP run per anchor.  ``DistanceOracle.distances`` projects
every query's anchors in lockstep by SQP, and a row that stops short of
converging still gives its end point where that is feasible.  Both share
the anchor pool.
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from holderbounds import verify
from holderbounds.bounds import holder_exponent
from holderbounds.polysys import parse_system
from holderbounds.verify import (
    DistanceConfig,
    DistanceOracle,
    SamplePlan,
    _boundary_biased_samples,
    _stratified_box_samples,
    verify_bound,
)

from conftest import DEMO_SYSTEMS, at_point, random_convenient_system
from distance_oracle import SequentialDistanceOracle

SEEDS = (1, 7, 42)
QUERIES = 40

# Queries where the lockstep bound is looser than the sequential one.
# S of degenerate_pair is the wedge -y <= x <= y plus the ray x = y < 0,
# on which the two gradients are parallel.  From some wedge anchors
# SLSQP's first steps land on the ray, which is nearer to these queries
# (12.8% and 4.6%); the lockstep descent on its merit function stays on
# the wedge.  The others stall at a singular point of S, 0, where the
# gradients of x^2 - y^2 (degenerate_pair_perturbed; 0.11% and 0.011%)
# and of 2x^4 - x^2y^2 - 3y^3 (random4; 0.15% to 3.2%) vanish: the SQP
# multipliers pass the cap there, and the row keeps the point it reached.
KNOWN_LOOSER = {
    ("degenerate_pair", 7): {6},
    ("degenerate_pair", 42): {37},
    ("degenerate_pair_perturbed", 7): {1},
    ("degenerate_pair_perturbed", 42): {21},
    ("random4", 4): {2, 11, 14, 22, 25, 28, 35},
}


def _cases():
    for path in DEMO_SYSTEMS:
        for seed in SEEDS:
            yield path.stem, seed
    for seed in range(10):
        yield f"random{seed}", seed


def _system(name):
    if name.startswith("random"):
        rng = random.Random(int(name[len("random") :]))
        return random_convenient_system(rng, max_vars=3, max_polys=3, max_extra_terms=4)
    return parse_system((DEMO_SYSTEMS[0].parent / f"{name}.poly").read_text())


@lru_cache(maxsize=None)
def _oracle(name, seed):
    system = _system(name)
    box = tuple((-3.0, 3.0) for _ in range(system.n))
    oracle = DistanceOracle(system, DistanceConfig(seed=seed, search_box=box))
    oracle.feasible_pool()
    return oracle


@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: f"{case[0]}-{case[1]}")
def test_lockstep_matches_sequential_oracle(case):
    name, seed = case
    oracle = _oracle(name, seed)
    system, cfg = oracle.system, oracle.cfg
    sequential = SequentialDistanceOracle(system, cfg)
    sequential._pool = oracle.feasible_pool()
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(QUERIES, system.n))
    results = oracle.distances(X)
    looser = set()
    for i, (x, out) in enumerate(zip(X, results)):
        certificate = tuple(Fraction(v) for v in out.certificate)
        assert out.max_violation <= cfg.tau_feas
        assert max(f.evaluate(certificate) for f in system.polys) <= cfg.tau_feas
        assert out.distance == pytest.approx(
            np.linalg.norm(np.array(out.certificate) - x), rel=1e-12, abs=0
        )
        assert oracle.distance(x) == out
        reference = sequential.distance(x).distance
        if out.distance > reference * (1 + 1e-9) + 1e-12:
            looser.add(i)
    assert looser <= KNOWN_LOOSER.get((name, seed), set())


def test_results_do_not_depend_on_the_chunk(monkeypatch):
    # The 30 queries fit one batch; a budget of 7 queries' floats makes
    # five batches, and a budget below one query's floats one query each.
    oracle = _oracle("half_disk", 7)
    X = np.random.default_rng(3).uniform(-3.0, 3.0, size=(30, 2))
    whole = oracle.distances(X)
    query_floats = (oracle.cfg.stall_limit + 1) * oracle._row_floats
    for budget in (7 * query_floats, 1):
        monkeypatch.setattr(verify, "_BATCH_FLOATS", budget)
        assert oracle.distances(X) == whole
    assert oracle.distances(X[:0]) == []


@pytest.mark.parametrize("name", ["half_disk", "quadratic_bowl"])
def test_regular_sets_need_no_fallback(name, monkeypatch):
    # Where S is smooth at its nearest points, every lockstep row converges.
    oracle = _oracle(name, 42)
    lockstep, rows = oracle._lockstep, []

    def counted(X, A):
        points, converged = lockstep(X, A)
        assert converged.all()
        rows.append(len(X))
        return points, converged

    monkeypatch.setattr(oracle, "_lockstep", counted)
    oracle.distances(np.random.default_rng(4).uniform(-3.0, 3.0, size=(100, 2)))
    assert sum(rows) > 100


def test_singular_set_falls_back():
    # S = {0} for sphere_cubic: the gradient of x^2 + y^2 + z^2 vanishes
    # there and the SQP multipliers blow up, so no row converges; the
    # polished end points still come within 1e-4 of the distance.
    oracle = _oracle("sphere_cubic", 1)
    X = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 3))
    anchors = oracle.feasible_pool()[:4]
    _, converged = oracle._lockstep(X, anchors)
    assert not converged.any()
    for x, out in zip(X, oracle.distances(X)):
        assert out.distance == pytest.approx(np.linalg.norm(x), abs=1e-4)


def test_walk_projects_the_anchors_the_sequential_walk_does(monkeypatch):
    # The rounds project each query's anchors nearest first, as the
    # sequential walk does: the rows one query passes to the lockstep,
    # over all rounds, are a prefix of its anchors in order of distance.
    oracle = _oracle("sphere_cubic", 7)
    pool = oracle.feasible_pool()
    X = np.random.default_rng(6).uniform(-3.0, 3.0, size=(20, 3))
    lockstep, walked = oracle._lockstep, {}

    def recorded(Q, A):
        for x, a in zip(Q, A):
            walked.setdefault(x.tobytes(), []).append(a)
        return lockstep(Q, A)

    monkeypatch.setattr(oracle, "_lockstep", recorded)
    oracle.distances(X)
    assert len(walked) == len(X)
    for x in X:
        anchors = np.array(walked[x.tobytes()])
        order = np.argsort(np.linalg.norm(pool - x, axis=1))
        np.testing.assert_array_equal(anchors, pool[order[: len(anchors)]])
    assert sum(map(len, walked.values())) > 2 * len(X)


# p = 9 > n = 2: eight half-planes and a disc.
WIDE_SYSTEM = """
f1 = x - 2
f2 = -x - 2
f3 = y - 2
f4 = -y - 2
f5 = x + y - 3
f6 = x - y - 3
f7 = -x + y - 3
f8 = -x - y - 3
f9 = x^2 + y^2 - 6
"""


def test_wide_system_enumerates_a_constraint_subset():
    # 45 active sets of at most two of nine constraints: past _QP_WIDTH,
    # so each row's QP enumerates the sets of only its seven constraints of
    # largest value, and its memory stays linear in p.  The step's validity
    # test still checks all nine, and the bounds are no looser than the
    # sequential oracle's.
    system = parse_system(WIDE_SYSTEM)
    box = ((-3.0, 3.0), (-3.0, 3.0))
    oracle = DistanceOracle(system, DistanceConfig(seed=1, search_box=box))
    assert oracle._qp_constraints == 7
    sequential = SequentialDistanceOracle(system, oracle.cfg)
    sequential._pool = oracle.feasible_pool()
    X = np.random.default_rng(8).uniform(-3.0, 3.0, size=(40, 2))
    tracemalloc.start()
    try:
        results = oracle.distances(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    for x, out in zip(X, results):
        assert out.max_violation <= oracle.cfg.tau_feas
        assert out.distance <= sequential.distance(x).distance * (1 + 1e-9) + 1e-12
    report = verify_bound(system, holder_exponent(2, 2, 9), SamplePlan(box=box, count=40, seed=1))
    assert report.violations == 0 and report.fitted_c is not None


def _boundary_loop(rng, comp, base, anchors, count):
    """The bisection one segment and one point at a time."""
    out = []
    positive = [x for x in base if at_point(comp, x)[0].max() > 0]
    if not positive or anchors is None or len(anchors) == 0:
        return np.empty((0, comp.n))
    for _ in range(count):
        x = positive[int(rng.integers(len(positive)))]
        a = anchors[int(rng.integers(len(anchors)))]
        t_out, t_in = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (t_out + t_in)
            point = (1 - mid) * x + mid * a
            if at_point(comp, point)[0].max() > 0:
                t_out = mid
            else:
                t_in = mid
        out.append((1 - t_out) * x + t_out * a)
    return np.array(out)


@pytest.mark.parametrize("case", [(p.stem, s) for p in DEMO_SYSTEMS for s in SEEDS],
                         ids=lambda case: f"{case[0]}-{case[1]}")
def test_boundary_bisection_matches_loop(case):
    name, seed = case
    oracle = _oracle(name, seed)
    box = oracle.cfg.search_box
    draws = []
    for bisect in (_boundary_biased_samples, _boundary_loop):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        base = _stratified_box_samples(rng, box, 150)
        draws.append(bisect(rng, oracle.comp, base, oracle.feasible_pool(), 50))
    np.testing.assert_array_equal(draws[0], draws[1])
    assert draws[0].shape == (50, oracle.system.n)
