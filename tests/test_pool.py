"""The anchor pool's batched Gauss-Newton descent against the L-BFGS-B pool it replaced.

``pool_oracle.LbfgsbPoolOracle`` runs one scipy L-BFGS-B minimisation of
the squared violation per infeasible start.  ``DistanceOracle.feasible_pool``
descends every infeasible start at once (``_descend``).  Both start from
the same draws in the same order and polish and deduplicate alike, so
their pools may differ only where some start was infeasible.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from holderbounds.polysys import parse_system
from holderbounds.verify import DistanceConfig, DistanceOracle, FeasibleSetEmptyError

from conftest import DEMO_SYSTEMS, random_convenient_system
from pool_oracle import LbfgsbPoolOracle

SEEDS = (1, 7, 42)
RANDOM_SYSTEMS = 24


def _systems():
    for path in DEMO_SYSTEMS:
        yield path.stem, parse_system(path.read_text())
    for index in range(RANDOM_SYSTEMS):
        rng = random.Random(index)
        yield f"random{index}", random_convenient_system(
            rng, max_vars=3, max_polys=3, max_extra_terms=4
        )


CASES = [(name, system, seed) for name, system in _systems() for seed in SEEDS]


def _pool(oracle):
    try:
        return oracle.feasible_pool()
    except FeasibleSetEmptyError:
        return None


@pytest.mark.parametrize(
    "name, system, seed", CASES, ids=[f"{name}-{seed}" for name, _, seed in CASES]
)
def test_pool_matches_lbfgsb_oracle(name, system, seed):
    cfg = DistanceConfig(seed=seed, search_box=tuple((-3.0, 3.0) for _ in range(system.n)))
    reference = LbfgsbPoolOracle(system, cfg)
    expected = _pool(reference)
    pool = _pool(DistanceOracle(system, cfg))
    if expected is not None:
        assert pool is not None
    if pool is not None:
        assert len(pool) <= cfg.multistarts
        values = DistanceOracle(system, cfg).comp(pool)[0]
        assert (values.max(axis=1) <= cfg.tau_feas).all()
    _, scores = reference.starts()
    if (scores == 0).all():
        np.testing.assert_array_equal(pool, expected)


def test_every_demo_pool_with_a_feasible_start_keeps_it_as_drawn():
    # A start that is feasible skips the descent and the polish leaves it
    # alone: its anchor is the draw itself, as in the L-BFGS-B pool.
    for path in DEMO_SYSTEMS:
        system = parse_system(path.read_text())
        cfg = DistanceConfig(seed=7, search_box=tuple((-3.0, 3.0) for _ in range(system.n)))
        starts, scores = LbfgsbPoolOracle(system, cfg).starts()
        pool = DistanceOracle(system, cfg).feasible_pool()
        for start in starts[scores == 0]:
            assert (pool == start).all(axis=1).any(), path.stem


def test_descent_rows_do_not_depend_on_their_batch():
    system = parse_system((DEMO_SYSTEMS[0].parent / "partition_n2.poly").read_text())
    oracle = DistanceOracle(system, DistanceConfig(seed=1))
    X = np.random.default_rng(3).uniform(-5.0, 5.0, size=(12, 2))
    together = oracle._descend(X)
    for row, x in zip(together, X):
        np.testing.assert_array_equal(oracle._descend(x[None])[0], row)

