"""``nondegen._certify_faces`` searches every face of a system in one lockstep.

The lockstep search must give, byte for byte, what one face at a time
gives: ``face_oracle.certify_system_face_by_face`` certifies each face on
an evaluator over that face's own support, with the same kernel.  Every
face goes through the search here, vertices and edges included, although
``certify_system`` decides most of those in closed form.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from holderbounds import nondegen
from holderbounds.newton import analyze_system
from holderbounds.nondegen import CertifyConfig, _certify_faces, _RankTest, build_m_delta
from holderbounds.polysys import Polynomial, PolySystem, parse_system

from conftest import DEMO_SYSTEMS, random_convenient_system
from face_oracle import certify_system_face_by_face

BENCH_SYSTEMS = sorted((Path(__file__).resolve().parent.parent / "bench" / "systems").glob("*.poly"))


def _config(seed: int) -> CertifyConfig:
    return CertifyConfig(samples=48, multistarts=3, descent_iters=40, seed=seed)


def _canonical(faces) -> str:
    return json.dumps([face.to_json() for face in faces], sort_keys=True)


def _matrices(system: PolySystem) -> list:
    return [build_m_delta(system, face) for face in analyze_system(system).faces]


def _searched(system: PolySystem, cfg: CertifyConfig) -> list:
    """Every face of the system through one lockstep search."""
    matrices = _matrices(system)
    return _certify_faces(matrices, range(len(matrices)), cfg)


def _alone(matrix, cfg: CertifyConfig, index: int):
    return _certify_faces([matrix], [index], cfg)[0]


@pytest.mark.parametrize("path", DEMO_SYSTEMS + BENCH_SYSTEMS, ids=lambda p: p.stem)
def test_lockstep_matches_face_by_face_on_fixtures(path):
    system = parse_system(path.read_text())
    for seed in (1, 7, 42):
        cfg = _config(seed)
        assert _canonical(_searched(system, cfg)) == _canonical(certify_system_face_by_face(system, cfg).faces)


def _dense_system(rng: random.Random) -> PolySystem:
    """Components with every monomial of their top degree d, 8 or more of
    them, plus a few lower terms: one face at infinity carries them all."""
    n = rng.randint(2, 3)
    polys = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(7, 8) if n == 2 else rng.randint(3, 4)
        terms = {
            kappa: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            for kappa in itertools.product(range(d + 1), repeat=n)
            if sum(kappa) == d
        }
        for _ in range(rng.randint(0, 3)):
            kappa = tuple(rng.randint(0, 2) for _ in range(n))
            terms.setdefault(kappa, Fraction(rng.randint(1, 3)))
        polys.append(Polynomial(terms, n))
    return PolySystem.from_polynomials(polys)


def _random_systems():
    """Random systems; every third has components of 8 or more monomials."""
    for seed in range(24):
        rng = random.Random(500 + seed)
        if seed % 3 == 0:
            yield seed, _dense_system(rng)
        else:
            yield seed, random_convenient_system(rng, max_polys=3, max_extra_terms=4)


def test_lockstep_matches_face_by_face_on_random_systems():
    wide_unions = 0
    for seed, system in _random_systems():
        cfg = _config(seed)
        assert _canonical(_searched(system, cfg)) == _canonical(
            certify_system_face_by_face(system, cfg).faces
        ), seed
        wide_unions += any(row.exps.shape[0] >= 8 for row in _RankTest(_matrices(system)).rows)
    # np.sum may add 8 or more monomials pairwise, where masked zeros would
    # regroup the gauge; the comparison must reach that case.
    assert wide_unions >= 3


@pytest.mark.parametrize("cap", [1, 7, 50])
def test_lockstep_cut_at_the_batch_cap(monkeypatch, cap):
    # Evaluations split into chunks of ``cap`` points change no bit: the
    # lockstep over every face, and each face alone, give the certificates
    # each face gets alone at the default cap.
    systems = [parse_system(DEMO_SYSTEMS[0].read_text()), random_convenient_system(random.Random(3), max_polys=3)]
    cfg = CertifyConfig(samples=32, multistarts=3, descent_iters=40, seed=5)
    for system in systems:
        matrices = _matrices(system)
        alone = [_alone(matrix, cfg, index) for index, matrix in enumerate(matrices)]
        with monkeypatch.context() as patch:
            patch.setattr(nondegen, "_BATCH_ROWS", cap)
            assert _searched(system, cfg) == alone
            assert [_alone(matrix, cfg, index) for index, matrix in enumerate(matrices)] == alone


def test_vanishing_principal_part_alone_and_in_lockstep():
    # f1 has no pure power of y, so on the face at z^4 its principal part
    # is empty: the face evaluated alone has an empty row support.
    system = parse_system("f1 = -2*x^4 - 3*z\nf2 = -x^2*z^2 + z^4 + y^4 - z^2 + x")
    cfg = _config(3)
    matrices = _matrices(system)
    empty = [k for k, m in enumerate(matrices) if not all(m.entries[i][m.n + i].terms for i in range(m.p))]
    assert empty
    lockstep = _searched(system, cfg)
    for k in empty:
        alone = _alone(matrices[k], cfg, k)
        assert alone == lockstep[k]
        assert alone.status == "degenerate" and alone.objective_min == 0.0
