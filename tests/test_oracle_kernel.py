"""The distance oracle's kernel against the one-halving-at-a-time kernel it replaced.

``sqp_oracle.SqpOracle`` backtracks one map call per halving, solves
every QP active set by LAPACK, takes every row's QP objective, checks
every row's Hessian and walks the anchors one row at a time.
``DistanceOracle`` backtracks in blocks of halvings
(``verify._backtrack``), divides on one-constraint active sets, takes
the objective only where two sets are valid, checks only Hessians other
than I, and walks and records in bulk.  Every comparison here is bit for
bit, the sign of zero included.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from holderbounds import verify
from holderbounds.polysys import parse_system
from holderbounds.verify import DistanceConfig, DistanceOracle, FeasibleSetEmptyError

from conftest import DEMO_SYSTEMS, random_convenient_system
from sqp_oracle import SqpOracle
from test_layout import _same_bits, _wide_range
from test_lockstep import WIDE_SYSTEM

BENCH_SYSTEMS = sorted((Path(__file__).resolve().parent.parent / "bench" / "systems").glob("*.poly"))
RANDOM_SYSTEMS = 30
# A start at y > 0 in this box zigzags in x for the whole descent, at
# 20-28 halvings a step.
HUGE_BOX_QUARTIC = "f1 = 2*x^4 + 2*y"


def _systems():
    for path in DEMO_SYSTEMS + BENCH_SYSTEMS:
        yield path.stem, parse_system(path.read_text())
    for index in range(RANDOM_SYSTEMS):
        rng = random.Random(index)
        yield f"random{index}", random_convenient_system(
            rng, max_vars=3, max_polys=3, max_extra_terms=4
        )


SYSTEMS = list(_systems())


def _pair(system, seed, box):
    cfg = DistanceConfig(seed=seed, search_box=box)
    return DistanceOracle(system, cfg), SqpOracle(system, cfg)


def _pool(oracle):
    try:
        return oracle.feasible_pool()
    except FeasibleSetEmptyError:
        return None


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for field in ("distance", "certificate", "max_violation"):
        a = np.array([getattr(r, field) for r in got])
        b = np.array([getattr(r, field) for r in want])
        assert _same_bits(a, b), field


def _assert_same_oracles(oracle, reference, X):
    pool = _pool(oracle)
    expected = _pool(reference)
    assert (pool is None) == (expected is None)
    if pool is None:
        return
    assert _same_bits(pool, expected)
    _assert_same_results(oracle.distances(X), reference.distances(X))
    anchors = pool[np.arange(len(X)) % len(pool)]
    points, converged = oracle._lockstep(X, anchors)
    want_points, want_converged = reference._lockstep(X, anchors)
    assert _same_bits(points, want_points)
    np.testing.assert_array_equal(converged, want_converged)


@pytest.mark.parametrize("name, system", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_kernel_matches_reference_kernel(name, system, monkeypatch):
    seed = 1 + sum(map(ord, name)) % 50
    box = tuple((-3.0, 3.0) for _ in range(system.n))
    oracle, reference = _pair(system, seed, box)
    # Under a budget of 256 queries a batch, the demos' query sets cross a
    # batch boundary, so their last batch is short.
    budget = 256 * (oracle.cfg.stall_limit + 1) * oracle._row_floats
    monkeypatch.setattr(verify, "_BATCH_FLOATS", budget)
    count = 300 if name in {path.stem for path in DEMO_SYSTEMS} else 40
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(count, system.n))
    _assert_same_oracles(oracle, reference, X)


def test_sqp_rows_that_fail_every_halving_match():
    # On the half disk some SQP line searches find no passing halving of
    # the 40; the huge-box quartic below covers the pool's descents.
    system = parse_system((DEMO_SYSTEMS[0].parent / "half_disk.poly").read_text())
    oracle, reference = _pair(system, 42, ((-3.0, 3.0), (-3.0, 3.0)))
    X = np.random.default_rng(42).uniform(-3.0, 3.0, size=(300, 2))
    _assert_same_oracles(oracle, reference, X)
    assert reference.failed_sqp_searches > 0


class _Counted:
    """A compiled system that counts its map calls."""

    def __init__(self, comp):
        self.comp, self.calls = comp, 0

    def __call__(self, X):
        self.calls += 1
        return self.comp(X)

    def __getattr__(self, name):
        return getattr(self.comp, name)


def test_huge_box_quartic_matches_with_fewer_map_calls():
    system = parse_system(HUGE_BOX_QUARTIC)
    oracle, reference = _pair(system, 42, ((-1e10, 1e10), (-1e10, 1e10)))
    oracle.comp, reference.comp = _Counted(oracle.comp), _Counted(reference.comp)
    assert _same_bits(oracle.feasible_pool(), reference.feasible_pool())
    assert reference.failed_pool_searches > 0
    assert 0 < oracle.comp.calls < reference.comp.calls / 2
    X = np.random.default_rng(42).uniform(-1e10, 1e10, size=(3, 2))
    _assert_same_oracles(oracle, reference, X)


def test_wide_system_matches():
    # Past _QP_WIDTH a row's QP enumerates its constraints of largest value only.
    system = parse_system(WIDE_SYSTEM)
    oracle, reference = _pair(system, 1, ((-3.0, 3.0), (-3.0, 3.0)))
    assert oracle._qp_constraints < system.p
    X = np.random.default_rng(8).uniform(-3.0, 3.0, size=(60, 2))
    _assert_same_oracles(oracle, reference, X)


def test_backtrack_takes_each_rows_first_passing_halving():
    # Row i passes at t = 2^-k exactly for the k in its set; 40 and above
    # are past the cap.  Halving one call at a time is the reference.
    rng = np.random.default_rng(4)
    passing = [set(rng.choice(45, size=rng.integers(0, 4), replace=False).tolist())
               for _ in range(300)]
    passing += [{0}, {4}, {5}, {39}, {40}, set()]

    def trial(rows, t):
        k = -np.log2(t).astype(int)
        return np.array([j in passing[i] for i, j in zip(rows, k)]), (rows * 100 + k,)

    t, passed, (tags,) = verify._backtrack(len(passing), trial)
    for i, ks in enumerate(passing):
        first = min((k for k in ks if k < 40), default=None)
        assert t[i] == (0.0 if first is None else 0.5**first), i
    assert sorted(passed.tolist()) == [i for i in range(len(passing)) if t[i] > 0]
    np.testing.assert_array_equal(tags, passed * 100 - np.log2(t[passed]).astype(int))


def test_one_constraint_shortcut_matches_lapack():
    # _qp_steps takes a 1x1 Schur matrix's entry as its least eigenvalue
    # and divides by it in place of a solve.  If a numpy release changes
    # either LAPACK result, this fails here and not as a last-bit change
    # in a distance.
    rng = np.random.default_rng(19)
    a = _wide_range(rng, 200_000)
    near_one = rng.random(a.size) < 0.3  # scaled Schur matrices sit near 1
    a[near_one] = 1.0 + rng.standard_normal(near_one.sum()) * 1e-15
    a[:4] = (np.inf, -np.inf, np.nan, 1e-12)
    b = _wide_range(rng, a.size)
    b[rng.random(b.size) < 0.01] = np.inf
    b[rng.random(b.size) < 0.01] = np.nan
    M = a[:, None, None]
    np.testing.assert_array_equal(a > 1e-12, np.linalg.eigvalsh(M)[:, 0] > 1e-12)
    regular = a > 1e-12
    M = np.where(regular[:, None, None], M, np.eye(1))
    want = np.linalg.solve(M, b[:, None, None])[:, 0, 0]
    got = b / M[:, 0, 0]
    assert np.isnan(want).any()
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
