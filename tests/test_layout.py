"""The coordinate-major rank-test kernel against the point-major one.

``nondegen`` holds its points as (n, m) coordinate arrays and sums over
the n + p columns of a matrix row as vector adds (``_row_sum``), in the
grouping numpy's ``sum(axis=1)`` uses over a contiguous row.
``layout_oracle`` keeps the point-major kernel it replaced; every
comparison here is bit for bit.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from holderbounds.nondegen import (
    CertifyConfig,
    _gram_determinant,
    _project_torus,
    _RankTest,
    _certify_faces,
    _row_sum,
    build_m_delta,
)
from holderbounds.newton import analyze_system
from holderbounds.polysys import parse_system

import layout_oracle
from conftest import DEMO_SYSTEMS, random_convenient_system

BENCH_SYSTEMS = sorted((Path(__file__).resolve().parent.parent / "bench" / "systems").glob("*.poly"))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # np.array_equal calls 0.0 and -0.0 equal; the sign of zero counts too.
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _wide_range(rng, shape) -> np.ndarray:
    """Values from 1e-30 to 1e30 of both signs, with exact zeros and -0.0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, size=shape)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    return values


@pytest.mark.parametrize("k", list(range(1, 25)) + [127, 128, 129, 300])
def test_row_sum_matches_numpy_row_sums(k):
    # If a numpy release changes how it groups a row sum, this fails here
    # and not as a silent last-bit change in every objective.
    rng = np.random.default_rng(k)
    for m in (1, 2, 5, 1000):
        points = _wide_range(rng, (m, k))
        assert _same_bits(_row_sum(np.ascontiguousarray(points.T)), points.sum(axis=1)), m
    all_negative_zero = np.full((3, k), -0.0)
    assert _same_bits(_row_sum(all_negative_zero.T), all_negative_zero.sum(axis=1))


def _rows(rng, n: int, p: int, m: int) -> list[np.ndarray]:
    rows = [rng.standard_normal((n + 1, m)) * 10.0 ** rng.uniform(-3, 3, size=(1, m)) for _ in range(p)]
    for i, row in enumerate(rows):
        row[:, i :: p + 3] = 0.0  # the whole row vanishes at these points
        row[:n, (i + 1) :: p + 5] = 0.0  # only its Euler terms vanish
        row[rng.random(row.shape) < 0.05] = -0.0
    return rows


def _tensor(rows: list[np.ndarray], n: int) -> np.ndarray:
    """The (m, p, n + p) point-major matrices of the row blocks."""
    p, m = len(rows), rows[0].shape[1]
    mats = np.zeros((m, p, n + p))
    for i, row in enumerate(rows):
        mats[:, i, :n] = row[:n].T
        mats[:, i, n + i] = row[n]
    return mats


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("p", range(1, 5))
def test_gram_determinant_matches_point_major(n, p):
    rng = np.random.default_rng(10 * n + p)
    for m in (1, 3, 257):
        rows = _rows(rng, n, p, m)
        got = _gram_determinant(rows, n)
        assert np.array_equal(got, layout_oracle._gram_determinant(_tensor(rows, n))), m
    # The planted zero rows must reach a zero determinant.
    assert (got == 0).any()


@pytest.mark.parametrize("n", range(1, 8))
def test_project_torus_matches_point_major(n):
    rng = np.random.default_rng(n)
    Y = rng.uniform(-3.0, 3.0, size=(200, n))
    Y[rng.random(Y.shape) < 0.1] = 0.0
    Y[rng.random(Y.shape) < 0.1] = -0.0
    Y[rng.random(Y.shape) < 0.1] *= 1e-6
    floor = rng.choice([1e-1, 1e-2, 1e-3], size=(200, 1))
    assert _same_bits(_project_torus(Y.T, 1e-2).T, layout_oracle._project_torus(Y, 1e-2))
    assert _same_bits(_project_torus(Y.T, floor[:, 0]).T, layout_oracle._project_torus(Y, floor))
    # The descent's proposals: (n, rows, 2n) against (rows, 2n, n).
    proposals = Y[: 10 * 2 * n].reshape(10, 2 * n, n)
    got = _project_torus(np.moveaxis(proposals, 2, 0), floor[:10])
    want = layout_oracle._project_torus(proposals, floor[:10, :, None])
    assert _same_bits(np.moveaxis(got, 0, 2), want)


def test_rank_test_matches_point_major_evaluator():
    for seed in range(6):
        system = random_convenient_system(random.Random(seed), max_polys=3)
        matrices = [build_m_delta(system, face) for face in analyze_system(system).faces]
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.5, 1.5, size=(300, system.n))
        faces = rng.integers(0, len(matrices), size=300)
        got = _RankTest(matrices).normalized(X.T, faces)
        assert np.array_equal(got, layout_oracle.PointMajorRankTest(matrices).normalized(X, faces)), seed


def _config(seed: int) -> CertifyConfig:
    return CertifyConfig(samples=48, multistarts=3, descent_iters=40, seed=seed)


def _canonical(faces) -> str:
    return json.dumps([face.to_json() for face in faces], sort_keys=True)


def _assert_matches_point_major(system):
    # Every face goes through the search, vertices and edges included.
    matrices = [build_m_delta(system, face) for face in analyze_system(system).faces]
    for seed in (1, 7, 42):
        cfg = _config(seed)
        got = _canonical(_certify_faces(matrices, range(len(matrices)), cfg))
        assert got == _canonical(layout_oracle.certify_system_point_major(system, cfg).faces), seed


@pytest.mark.parametrize("path", DEMO_SYSTEMS + BENCH_SYSTEMS, ids=lambda p: p.stem)
def test_search_matches_point_major_on_fixtures(path):
    _assert_matches_point_major(parse_system(path.read_text()))


def _random_systems():
    """20 random systems with n + p <= 6, then 4 with n + p >= 8, where
    the sums over a matrix row use numpy's eight accumulators."""
    for seed in range(20):
        yield random_convenient_system(random.Random(800 + seed), max_polys=3)
    wide = (random_convenient_system(random.Random(seed), max_vars=2, max_polys=7) for seed in range(100))
    yield from [system for system in wide if system.n + system.p >= 8][:4]


def test_search_matches_point_major_on_random_systems():
    wide = 0
    for system in _random_systems():
        _assert_matches_point_major(system)
        wide += system.n + system.p >= 8
    assert wide == 4
