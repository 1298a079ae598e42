"""The rank-test search against the one that rebuilt its fixed costs in
the loop, bit for bit.

``search_oracle`` keeps the search before its masks, monomial gathers
and proposal slots left the loop: a union table gathered again per row,
the face masks gathered on every evaluation, every sum through
``_row_sum`` or ``_ordered_sum``, a shell that always rescales and a
descent that keeps a row at 0 until its step reaches the floor.  Every
comparison is on the bits, the sign of zero included.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from holderbounds import nondegen
from holderbounds.evaluator import _CompiledMap
from holderbounds.newton import analyze_system
from holderbounds.nondegen import (
    _BATCH_ROWS,
    CertifyConfig,
    _descend,
    _gram_determinant,
    _project_torus,
    _RankTest,
    _shell,
    build_m_delta,
    certify_system,
)
from holderbounds.polysys import parse_system

import search_oracle
from conftest import DEMO_SYSTEMS, random_convenient_system
from test_kernel import OVERFLOWING, VANISHING, _same_bits

# Some systems overflow; that is what they are for.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

BENCH_SYSTEMS = sorted((Path(__file__).resolve().parent.parent / "bench" / "systems").glob("*.poly"))
SEARCH_SYSTEMS = [path.stem for path in DEMO_SYSTEMS + BENCH_SYSTEMS] + [f"random{k}" for k in range(30)]
# Its edge's principal part is (x - y)^2, whose objective is exactly 0
# where x = y, and the descent from (0.5, 0.25) lands there.
SQUARE = "f1 = x^2 - 2*x*y + y^2 - 1"


def _system(name: str):
    if name.startswith("random"):
        return random_convenient_system(random.Random(500 + int(name[6:])), max_polys=3)
    path = next(path for path in DEMO_SYSTEMS + BENCH_SYSTEMS if path.stem == name)
    return parse_system(path.read_text())


def _wide_systems():
    """Two systems with n + p >= 8, where a sum over a matrix row adds pairwise."""
    wide = (random_convenient_system(random.Random(seed), max_vars=2, max_polys=7) for seed in range(100))
    return [system for system in wide if system.n + system.p >= 8][:2]


def _matrices(system):
    return [build_m_delta(system, face) for face in analyze_system(system).faces]


class _Checked(_RankTest):
    """The evaluator, with the oracle beside it: every objective it gives
    the search, outside the descent's own calls, is checked against the
    oracle's."""

    def __init__(self, matrices):
        super().__init__(matrices)
        self.oracle = search_oracle.RankTest(matrices)

    def normalized(self, X, faces=0, masks=None):
        out = super().normalized(X, faces, masks)
        if masks is None:
            assert _same_bits(out, self.oracle.normalized(X, faces))
        return out


@pytest.mark.parametrize("name", SEARCH_SYSTEMS)
def test_search_matches_the_oracle(name, monkeypatch):
    system = _system(name)
    descents = []

    def checked_descend(comp, starts, tau_axis, iters, faces=0):
        got = _descend(comp, starts, tau_axis, iters, faces)
        want = search_oracle._descend(comp.oracle, starts, tau_axis, iters, faces)
        descents.append(_same_bits(got[0], want[0]) and _same_bits(got[1], want[1]))
        return got

    monkeypatch.setattr(nondegen, "_RankTest", _Checked)
    monkeypatch.setattr(nondegen, "_descend", checked_descend)
    for seed in (1, 7, 42):
        certify_system(system, CertifyConfig(seed=seed))
    assert all(descents)
    # These systems have faces that no closed form decides.
    if name in ("sphere_cubic", "rand_n3p2_s8", "stress_n4p2", "stress_n5p2"):
        assert len(descents) == 3


def _objective_systems():
    texts = [path.read_text() for path in DEMO_SYSTEMS + BENCH_SYSTEMS] + OVERFLOWING + [VANISHING, SQUARE]
    return [parse_system(text) for text in texts] + _wide_systems()


OBJECTIVE_SYSTEMS = _objective_systems()


@pytest.mark.parametrize("index", range(len(OBJECTIVE_SYSTEMS)))
def test_objective_matches_the_oracle(index):
    system = OBJECTIVE_SYSTEMS[index]
    matrices = _matrices(system)
    new, old = _RankTest(matrices), search_oracle.RankTest(matrices)
    zero = np.flatnonzero(new.zero_row)
    rng = np.random.default_rng(index)
    for m in (0, 1, 300, 4096, _BATCH_ROWS + 5):
        X = rng.uniform(-2.0, 2.0, size=(system.n, m))
        X[rng.random(X.shape) < 0.02] = 0.0
        X[rng.random(X.shape) < 0.02] = -0.0
        per_point = rng.integers(0, len(matrices), size=m)
        choices = [per_point, 0, len(matrices) - 1]
        if zero.size:
            choices += [int(zero[0]), rng.choice(zero, size=m)]
        for faces in choices:
            want = old.normalized(X, faces)
            assert _same_bits(new.normalized(X, faces), want), (m, faces)
            assert _same_bits(new.normalized(X, faces, masks=new.select(faces)), want), (m, faces)
    X = rng.uniform(-2.0, 2.0, size=(system.n, 5))
    faces = rng.integers(0, len(matrices), size=5)
    assert _same_bits(new.matrices(X, faces), old.matrices(X, faces))


def test_tables_match_the_oracle():
    rng = np.random.default_rng(2)
    for system in OBJECTIVE_SYSTEMS:
        comp = _RankTest(_matrices(system))
        for cmap in comp.rows + [comp._monomials, _CompiledMap(system.polys, system.n)]:
            for m in (0, 1, 3, 700):
                X = rng.uniform(-3.0, 3.0, size=(system.n, m))
                X[rng.random(X.shape) < 0.05] = -0.0
                assert _same_bits(cmap.table(X), search_oracle.table(cmap, X))


@pytest.mark.parametrize("k", range(2, 13))
def test_gram_determinant_matches_the_oracle(k):
    rng = np.random.default_rng(k)
    for p in range(1, min(k, 4) + 1):
        for m in (1, 2, 300):
            rows = rng.standard_normal((p, k, m)) * 10.0 ** rng.integers(-150, 151, size=(p, k, m))
            rows[rng.random(rows.shape) < 0.05] = -0.0
            rows[rng.random(rows.shape) < 0.05] = 0.0
            rows[:, :, :1] = 0.0  # rank 0 at the first point
            want = search_oracle._gram_determinant(list(rows.copy()))
            assert _same_bits(_gram_determinant(list(rows.copy())), want), (p, m)


@pytest.mark.parametrize("n", range(1, 9))
def test_shell_matches_the_oracle(n):
    rng = np.random.default_rng(n)
    for scale in (1.0, 3.0 / np.sqrt(n), 1e200):
        Y = rng.uniform(-1.0, 1.0, size=(n, 600)) * scale / np.sqrt(n)
        Y[rng.random(Y.shape) < 0.05] = -0.0
        floors = rng.choice([1e-1, 1e-2, 1e-3], size=600)
        for tau in (1e-2, floors):
            Y_off = nondegen._off_axes(Y, tau)
            assert _same_bits(_shell(Y_off, tau), search_oracle._shell(Y_off, tau))
            assert _same_bits(_project_torus(Y, tau), search_oracle._project_torus(Y, tau))
    # Every norm inside [0.5, 2]: the shell gives the points back.
    Y = rng.uniform(0.6, 1.0, size=(n, 50)) / np.sqrt(n)
    assert _shell(Y, 1e-2) is Y and _same_bits(Y, search_oracle._shell(Y, 1e-2))


@pytest.mark.parametrize("index", range(len(OBJECTIVE_SYSTEMS)))
def test_descent_matches_the_oracle(index):
    system = OBJECTIVE_SYSTEMS[index]
    matrices = _matrices(system)
    new, old = _RankTest(matrices), search_oracle.RankTest(matrices)
    rng = np.random.default_rng(index)
    rows = 20
    starts = rng.uniform(-1.0, 1.0, size=(rows, system.n))
    floors = rng.choice([1e-1, 1e-2, 1e-3], size=(rows, 1))
    faces = rng.integers(0, len(matrices), size=rows)
    for iters in (0, 1, 40, 200):
        got = _descend(new, starts, floors, iters, faces)
        want = search_oracle._descend(old, starts, floors, iters, faces)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), iters


def test_rows_that_reach_zero_leave_with_their_point():
    system = parse_system(SQUARE)
    matrices = _matrices(system)
    edge = next(k for k, m in enumerate(matrices) if m.face.dim == 1)
    new, old = _RankTest(matrices), search_oracle.RankTest(matrices)
    # Rows 0 and 2 reach 0 within a few iterations, row 1 only nears it,
    # and rows 3 and 4 sit on vertices, beside them in the batch.
    starts = np.array([[0.5, 0.25], [0.3, 0.7], [-0.5, -0.25], [0.9, 0.2], [0.4, -0.8]])
    faces = np.array([edge, edge, edge, (edge + 1) % 3, (edge + 2) % 3])
    assert (new.normalized(starts.T, faces) > 0).all()
    got = _descend(new, starts, 1e-2, 200, faces)
    want = search_oracle._descend(old, starts, 1e-2, 200, faces)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert got[1][0] == got[1][2] == 0.0 and got[1][1] > 0.0


def test_descent_mixes_vanishing_faces_with_live_rows():
    matrices = _matrices(parse_system(VANISHING))
    new, old = _RankTest(matrices), search_oracle.RankTest(matrices)
    zero = np.flatnonzero(new.zero_row)
    rng = np.random.default_rng(4)
    starts = rng.uniform(-1.0, 1.0, size=(12, 3))
    faces = rng.integers(0, len(matrices), size=12)
    faces[:4] = zero[0]
    got = _descend(new, starts, 1e-2, 200, faces)
    want = search_oracle._descend(old, starts, 1e-2, 200, faces)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert (got[1][:4] == 0.0).all()
