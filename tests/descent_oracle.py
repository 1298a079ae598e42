"""Reference for ``nondegen.certify_face``: one descent per ``tau_axis`` stage.

This is the search as it was before the stages' starts were stacked into
one descent per face: each stage draws its samples, keeps its best
``multistarts`` and descends them at once with a scalar floor, and the
whole batch runs until every row sits at its fixed point.  Tests compare
the one-descent search against it.
"""

from __future__ import annotations

import itertools
from math import ceil

import numpy as np

from holderbounds.nondegen import (
    CertifyConfig,
    FaceCertificate,
    MDeltaMatrix,
    _CompiledMDelta,
    _project_torus,
    _try_exact_witness,
)
from holderbounds.polysys import rational_str


def descend_per_stage(comp: _CompiledMDelta, starts: np.ndarray, tau_axis: float, iters: int):
    """Batch adaptive-step coordinate descent with an axis-avoidance floor."""
    X = _project_torus(starts.copy(), tau_axis)
    vals = comp.normalized(X)
    steps = np.full(X.shape[0], 0.25)
    n = comp.n
    for _ in range(iters):
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
        if not improved.any() and (steps == 1e-12).all():
            break  # a fixed point: every later iteration repeats these proposals
        X[improved] = proposals[improved, arg[improved]]
        vals = np.where(improved, best, vals)
        steps = np.where(improved, steps * 1.4, steps * 0.6)
        steps = np.maximum(steps, 1e-12)
    return X, vals


def certify_face_per_stage(
    matrix: MDeltaMatrix, cfg: CertifyConfig = CertifyConfig(), face_index: int = 0
) -> FaceCertificate:
    """``certify_face`` with one ``descend_per_stage`` call per ``tau_axis`` stage."""
    comp = _CompiledMDelta(matrix)
    n = comp.n
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(face_index,)))
    orthants = list(itertools.product((1.0, -1.0), repeat=n))
    per_orthant = max(1, ceil(cfg.samples / len(orthants)))

    best_val = np.inf
    best_x = None
    samples_used = 0
    for tau_axis in cfg.tau_axis_schedule:
        blocks = []
        for sigma in orthants:
            g = np.abs(rng.standard_normal((per_orthant, n))) + 1e-12
            u = g / np.linalg.norm(g, axis=1, keepdims=True)
            u = np.maximum(u, tau_axis)
            blocks.append(u * np.asarray(sigma))
        X = np.vstack(blocks)
        vals = comp.normalized(X)
        samples_used += X.shape[0]
        stage_best = int(vals.argmin())
        if vals[stage_best] < best_val:
            best_val = float(vals[stage_best])
            best_x = X[stage_best].copy()

        order = np.argsort(vals)[: cfg.multistarts]
        refined_x, refined_vals = descend_per_stage(comp, X[order], tau_axis, cfg.descent_iters)
        arg = int(refined_vals.argmin())
        if refined_vals[arg] < best_val:
            best_val = float(refined_vals[arg])
            best_x = refined_x[arg].copy()

    witness = None
    witness_exact = None
    if best_val <= cfg.tau_zero:
        exact = _try_exact_witness(matrix, best_x)
        interior = float(np.min(np.abs(best_x))) >= cfg.witness_floor
        if exact is not None or interior:
            status = "degenerate"
            witness = tuple(float(v) for v in best_x)
            if exact is not None:
                witness_exact = tuple(rational_str(c) for c in exact)
        else:
            status = "inconclusive"
    elif best_val <= 10 * cfg.tau_zero:
        status = "inconclusive"
    else:
        status = "nondegenerate_probable"
    return FaceCertificate(
        face_index=face_index,
        support=matrix.face.support_points,
        status=status,
        objective_min=best_val,
        witness=witness,
        witness_exact=witness_exact,
        samples=samples_used,
        seed=cfg.seed,
    )
