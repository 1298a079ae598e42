"""The rank-test kernel against the one it replaced, bit for bit.

``kernel_oracle`` keeps the kernel before it was cut to fewer numpy
passes: one power ladder per matrix row, dense Gram-Schmidt rows and a
basis vector for every row, a projection that fixes each sign twice,
and a descent that gathers its live rows on every iteration.  Each
comparison here is on the bits, the sign of zero included; a NaN must
be a NaN in both, whatever its payload, since no comparison in the
search reads the payload.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from holderbounds.newton import analyze_system
from holderbounds.nondegen import (
    _BATCH_ROWS,
    _descend,
    _gram_determinant,
    _project_torus,
    _RankTest,
    build_m_delta,
)
from holderbounds.polysys import parse_system

import kernel_oracle
from conftest import DEMO_SYSTEMS, random_convenient_system

# Both kernels overflow on the systems below; that is what they are for.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

BENCH_SYSTEMS = sorted((Path(__file__).resolve().parent.parent / "bench" / "systems").glob("*.poly"))

# Monomials that overflow at |x| = 2, and a coefficient whose entries
# overflow where the gauge does not.
OVERFLOWING = [
    "f1 = x^400*y^300 + x^600 + y^500 - 1\nf2 = x - y^3",
    "f1 = x^1100 + y^3 - 1\nf2 = x*y - y^2",
    "f1 = 1e307*x^4 + y^2 - 1\nf2 = x - y^3",
]
# f1 has no pure power of y, so its principal part vanishes on a face.
VANISHING = "f1 = -2*x^4 - 3*z\nf2 = -x^2*z^2 + z^4 + y^4 - z^2 + x"


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def _systems():
    texts = [path.read_text() for path in DEMO_SYSTEMS + BENCH_SYSTEMS] + OVERFLOWING + [VANISHING]
    systems = [parse_system(text) for text in texts]
    systems += [random_convenient_system(random.Random(900 + seed), max_polys=3) for seed in range(30)]
    # Two with n + p >= 8, where a sum over a matrix row uses eight accumulators.
    wide = (random_convenient_system(random.Random(seed), max_vars=2, max_polys=7) for seed in range(100))
    return systems + [system for system in wide if system.n + system.p >= 8][:2]


def _matrices(system):
    return [build_m_delta(system, face) for face in analyze_system(system).faces]


SYSTEMS = _systems()


def test_the_systems_reach_every_kernel_path():
    vanishing = overflowing = wide = 0
    for system in SYSTEMS:
        matrices = _matrices(system)
        comp = _RankTest(matrices)
        vanishing += bool(comp.zero_row.any())
        wide += system.n + system.p >= 8
        X = np.random.default_rng(0).uniform(-2.0, 2.0, size=(system.n, 64))
        overflowing += not np.isfinite(kernel_oracle.RankTest(matrices).normalized(X, 0)).all()
    assert vanishing and overflowing >= 2 and wide == 2


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_objective_matches_the_old_kernel(index):
    system = SYSTEMS[index]
    matrices = _matrices(system)
    new, old = _RankTest(matrices), kernel_oracle.RankTest(matrices)
    rng = np.random.default_rng(index)
    # 8193 points cross the chunk boundary of _BATCH_ROWS.
    for m in (1, 2, 7, 1440, _BATCH_ROWS + 1):
        X = rng.uniform(-2.0, 2.0, size=(system.n, m))
        X[rng.random(X.shape) < 0.02] = 0.0
        X[rng.random(X.shape) < 0.02] = -0.0
        per_point = rng.integers(0, len(matrices), size=m)
        for faces in (per_point, 0, len(matrices) - 1):
            assert _same_bits(new.normalized(X, faces), old.normalized(X, faces)), (m, faces)
    X = rng.uniform(-2.0, 2.0, size=(system.n, 5))
    assert _same_bits(new.matrices(X, 0)[:, : system.n], np.stack(old._evaluate(X, 0)[0])[:, : system.n])


def test_one_point_on_a_row_of_many_monomials():
    # np.add.reduce over the first axis adds pairwise when each term is a
    # single value, which regroups a gauge of 19 or more monomials.
    # Every monomial of degree 20 lies on the face at infinity of f1.
    terms = " + ".join(f"x^{a}*y^{20 - a}" for a in range(21))
    system = parse_system(f"f1 = {terms} - 1\nf2 = x - y")
    matrices = _matrices(system)
    comp = _RankTest(matrices)
    assert max(row.exps.shape[0] for row in comp.rows) >= 19
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=(2, 1))
        for face in range(len(matrices)):
            assert _same_bits(comp.normalized(x, face), kernel_oracle.RankTest(matrices).normalized(x, face))


def _rows(rng, n: int, p: int, m: int) -> list[np.ndarray]:
    """Row blocks with values from 1e-200 to 1e200, zeros and -0.0."""
    rows = []
    for i in range(p):
        row = rng.standard_normal((n + 1, m)) * 10.0 ** rng.integers(-200, 201, size=(n + 1, m))
        row[:, i :: p + 3] = 0.0
        row[rng.random(row.shape) < 0.05] = -0.0
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("p", range(1, 5))
def test_gram_determinant_matches_the_old_kernel(n, p):
    rng = np.random.default_rng(100 * n + p)
    for m in (1, 2, 7, 300):
        rows = _rows(rng, n, p, m)
        want = kernel_oracle._gram_determinant(rows, n)
        # The evaluator's dense rows give the oracle's bits.
        dense = [kernel_oracle._dense_row(row, i, n, p) for i, row in enumerate(rows)]
        assert _same_bits(_gram_determinant(dense), want), m


@pytest.mark.parametrize("n", range(1, 9))
def test_project_torus_matches_the_old_kernel(n):
    rng = np.random.default_rng(n)
    Y = rng.uniform(-3.0, 3.0, size=(n, 600))
    Y[rng.random(Y.shape) < 0.1] = 0.0
    Y[rng.random(Y.shape) < 0.1] = -0.0
    Y[rng.random(Y.shape) < 0.1] *= 1e-6
    Y[rng.random(Y.shape) < 0.05] *= 1e200  # norms past the float range
    Y[:, :10] = -0.0  # all-zero points
    floors = rng.choice([1e-1, 1e-2, 1e-3], size=600)
    for tau in (1e-2, floors):
        assert _same_bits(_project_torus(Y, tau), kernel_oracle._project_torus(Y, tau))
    # The descent's proposals: (n, rows, 2n).
    proposals = Y[:, : 30 * 2 * n].reshape(n, 30, 2 * n)
    column = floors[:30, None]
    assert _same_bits(_project_torus(proposals, column), kernel_oracle._project_torus(proposals, column))


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_descent_matches_the_old_kernel(index):
    system = SYSTEMS[index]
    matrices = _matrices(system)
    new, old = _RankTest(matrices), kernel_oracle.RankTest(matrices)
    rng = np.random.default_rng(index)
    rows = 24
    starts = rng.uniform(-1.0, 1.0, size=(rows, system.n))
    floors = rng.choice([1e-1, 1e-2, 1e-3], size=(rows, 1))
    faces = rng.integers(0, len(matrices), size=rows)
    for iters in (0, 1, 60):
        got = _descend(new, starts, floors, iters, faces)
        want = kernel_oracle._descend(old, starts, floors, iters, faces)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), iters
    # One face and one floor for every row.
    got = _descend(new, starts[:5], 1e-2, 60, 0)
    want = kernel_oracle._descend(old, starts[:5], 1e-2, 60, 0)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def test_descent_of_vanishing_faces_alone_matches_the_old_kernel():
    # Every row sits on a face whose objective is 0 everywhere.
    matrices = _matrices(parse_system(VANISHING))
    comp = _RankTest(matrices)
    zero = np.flatnonzero(comp.zero_row)
    rng = np.random.default_rng(3)
    starts = rng.uniform(-1.0, 1.0, size=(6, 3))
    faces = rng.choice(zero, size=6)
    got = _descend(comp, starts, 1e-2, 200, faces)
    want = kernel_oracle._descend(kernel_oracle.RankTest(matrices), starts, 1e-2, 200, faces)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert (got[1] == 0.0).all()
