"""One lockstep batch per float budget against the 256-query chunks it replaced.

``batch_oracle.ChunkedOracle`` projects queries in chunks of 256 and
solves every QP active set in one array per quantity.
``DistanceOracle.distances`` sizes its batches by ``verify._BATCH_FLOATS``
and ``_qp_steps`` tries the active sets one size at a time with running
picks.  Every comparison here is bit for bit, the sign of zero included:
the QP on the inputs of every lockstep iteration, and whole ``distances``
results.  The budget tests check the batches' sizes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from holderbounds import verify
from holderbounds.polysys import parse_system
from holderbounds.verify import _BATCH_FLOATS, _QP_WIDTH, DistanceConfig, DistanceOracle

from batch_oracle import CHUNK, ChunkedOracle
from conftest import DEMO_SYSTEMS, random_convenient_system
from test_lockstep import WIDE_SYSTEM
from test_oracle_kernel import SYSTEMS, _assert_same_results, _pool

SEEDS = (1, 7, 42)
CASES = [(name, system, seed) for name, system in SYSTEMS + [("wide", parse_system(WIDE_SYSTEM))]
         for seed in SEEDS]
DEMOS = {path.stem for path in DEMO_SYSTEMS}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _copy(value):
    return tuple(map(_copy, value)) if isinstance(value, tuple) else np.array(value)


def _recorded(oracle, name):
    """Wrap ``oracle.name`` to record copies of every call's arguments and results."""
    method, calls = getattr(oracle, name), []

    def recorded(*args):
        out = method(*args)
        calls.append((_copy(args), _copy(out)))
        return out

    setattr(oracle, name, recorded)
    return calls


@pytest.mark.parametrize("name, system, seed", CASES,
                         ids=[f"{name}-{seed}" for name, _, seed in CASES])
def test_one_batch_matches_the_chunked_oracle(name, system, seed):
    box = tuple((-3.0, 3.0) for _ in range(system.n))
    cfg = DistanceConfig(seed=seed, search_box=box)
    oracle, reference = DistanceOracle(system, cfg), ChunkedOracle(system, cfg)
    pool = _pool(oracle)
    if pool is None:
        return
    reference._pool = pool
    # The demos' queries cross the oracle's chunk; every set fits one batch.
    count = CHUNK + 44 if name in DEMOS else 40
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(count, system.n))
    calls = _recorded(oracle, "_qp_steps")
    _assert_same_results(oracle.distances(X), reference.distances(X))
    assert bool(calls) == (oracle.comp(X)[0].max(axis=1) > cfg.tau_feas).any()
    for args, (step, lam, solved) in calls:
        want_step, want_lam, want_solved = reference._qp_steps(*args)
        assert _same_bits(step, want_step)
        assert _same_bits(lam, want_lam)
        np.testing.assert_array_equal(solved, want_solved)


def test_qp_picks_match_on_ties_and_overflow():
    # Rows whose QP objectives tie, overflow to inf or are NaN: the running
    # picks choose as the oracle's argmin over every set does.  With g = 0,
    # H = I and f_0 = 1e200 on x, the first row's one valid set, {0}, has
    # objective inf, and it takes that set; the second row's two valid
    # sets, {0} and {1} (parallel gradients), both do, so it takes the
    # invalid empty set.
    system = parse_system("f1 = x^2 + y^2 - 1\nf2 = x + y")
    cfg = DistanceConfig(seed=1)
    oracle, reference = DistanceOracle(system, cfg), ChunkedOracle(system, cfg)
    rng = np.random.default_rng(11)
    rows = 400
    scale = 10.0 ** rng.choice([0, 0, 0, 150, 160, 200], size=(rows, 1))
    g = rng.standard_normal((rows, 2)) * scale
    f = rng.standard_normal((rows, 2)) * scale
    J = rng.standard_normal((rows, 2, 2))
    J[::7, 1] = J[::7, 0]  # parallel gradients: a singular Schur matrix
    J[::11] = 0.0
    H = np.eye(2) * rng.uniform(1e-3, 10.0, size=(rows, 1, 1))
    g[:2], H[:2] = 0.0, np.eye(2)
    f[:2], J[:2] = [[1e200, -1e200], [1e200, 1e200]], [np.eye(2), [[1.0, 0.0], [1.0, 0.0]]]
    gauge = (np.abs(f), np.abs(J))
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = oracle._qp_steps(g, f, J, H, gauge), reference._qp_steps(g, f, J, H, gauge)
    for a, b in zip(got, want):
        assert _same_bits(a, b)


def test_batches_stay_within_the_budget(monkeypatch):
    # A system whose QP alone fills _QP_WIDTH gets at most today's 256
    # queries a batch, under the default stall limit.
    assert _BATCH_FLOATS // ((DistanceConfig().stall_limit + 1) * _QP_WIDTH) == 256
    wide = parse_system(WIDE_SYSTEM)
    p3 = random_convenient_system(random.Random(5), max_vars=3, max_polys=3, max_extra_terms=4)
    assert p3.p == 3
    for system, count, budget in ((wide, 300, _BATCH_FLOATS), (p3, 120, None)):
        box = tuple((-3.0, 3.0) for _ in range(system.n))
        oracle = DistanceOracle(system, DistanceConfig(seed=7, search_box=box))
        query_floats = (oracle.cfg.stall_limit + 1) * oracle._row_floats
        if budget is None:  # 25 queries a batch: five batches
            budget = 25 * query_floats
            monkeypatch.setattr(verify, "_BATCH_FLOATS", budget)
        batches, calls = _recorded(oracle, "_distances"), _recorded(oracle, "_lockstep")
        X = np.random.default_rng(9).uniform(-3.0, 3.0, size=(count, system.n))
        oracle.distances(X)
        size = budget // query_floats
        assert [len(args[0]) for args, _ in batches] == [size] * (count // size) + [count % size]
        assert max(len(args[0]) for args, _ in calls) * oracle._row_floats <= budget


def test_one_lockstep_call_per_round():
    # 300 half_disk queries fit one batch, so each round's rows go through
    # one lockstep call: every walking query is in it, and the walking
    # queries only ever drop out.
    system = parse_system((DEMO_SYSTEMS[0].parent / "half_disk.poly").read_text())
    oracle = DistanceOracle(system, DistanceConfig(seed=42, search_box=((-3.0, 3.0),) * 2))
    X = np.random.default_rng(42).uniform(-3.0, 3.0, size=(300, 2))
    calls = _recorded(oracle, "_lockstep")
    oracle.distances(X)
    walking = [{x.tobytes() for x in args[0]} for args, _ in calls]
    infeasible = oracle.comp(X)[0].max(axis=1) > oracle.cfg.tau_feas
    assert walking[0] == {x.tobytes() for x in X[infeasible]}
    assert all(later <= earlier for earlier, later in zip(walking, walking[1:]))


def test_empty_query_array_of_the_wrong_width_raises():
    oracle = DistanceOracle(parse_system("f = x^2 + y^2 - 1"))
    for X in (np.zeros((0, 3)), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="points of length 3 for a 2-variable system"):
            oracle.distances(X)
    assert oracle.distances(np.zeros((0, 2))) == []
