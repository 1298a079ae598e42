"""The verification samplers before their draws became one call each.

``_stratified_box_samples`` draws each sign orthant's samples in a call
of its own, and ``_boundary_biased_samples`` draws each (sample, anchor)
pair as two scalar ``rng.integers`` calls.  ``test_sampler`` checks the
one-call samplers in ``holderbounds.verify`` against these, bit for bit
and generator state included.
"""

from __future__ import annotations

import itertools

import numpy as np


def _stratified_box_samples(rng, box, count):
    n = len(box)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    orthants = list(itertools.product((1, -1), repeat=n))
    quota, extra = divmod(count, len(orthants))
    out = []
    for idx, sigma in enumerate(orthants):
        take = quota + (1 if idx < extra else 0)
        if take == 0:
            continue
        slo = lo.copy()
        shi = hi.copy()
        for j, s in enumerate(sigma):
            if lo[j] < 0.0 < hi[j]:
                if s > 0:
                    slo[j] = 0.0
                else:
                    shi[j] = 0.0
        out.append(rng.uniform(slo, shi, size=(take, n)))
    return np.vstack(out)


def _boundary_biased_samples(rng, comp, base, anchors, count):
    """Bisect sample->anchor segments to land just outside {f <= 0}."""
    positive = base[comp(base)[0].max(axis=1) > 0]
    if not len(positive) or anchors is None or len(anchors) == 0:
        return np.empty((0, comp.n))
    pairs = [
        (int(rng.integers(len(positive))), int(rng.integers(len(anchors))))
        for _ in range(count)
    ]
    X = positive[[i for i, _ in pairs]]
    A = anchors[[j for _, j in pairs]]
    t_out, t_in = np.zeros((count, 1)), np.ones((count, 1))
    for _ in range(40):
        mid = 0.5 * (t_out + t_in)
        outside = comp((1 - mid) * X + mid * A)[0].max(axis=1, keepdims=True) > 0
        t_out = np.where(outside, mid, t_out)
        t_in = np.where(outside, t_in, mid)
    return (1 - t_out) * X + t_out * A
