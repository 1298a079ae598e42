"""The one-call verification samplers against the loops they replaced.

Each comparison is on the bits of the samples and on the generator's
state after the call, so every later draw of ``verify_bound`` is the
same too.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from holderbounds.verify import _boundary_biased_samples, _stratified_box_samples

import sampler_oracle

COUNTS = range(1, 501)


def _boxes(n: int) -> dict:
    """Boxes that straddle 0 on every axis, on none, on some, and a huge one."""
    mixed = ((-2.0, 1.0), (0.0, 2.0), (-5.0, -1.0), (-2.0, 0.0), (1.0, 1.0))
    return {
        "straddle": tuple((-3.0, 3.0) for _ in range(n)),
        "positive": tuple((0.5, 2.0) for _ in range(n)),
        "mixed": mixed[:n],
        "huge": tuple((-1e10, 1e10) for _ in range(n)),
    }


def _rng(seed: int):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _same(rng_a, a, rng_b, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
        and rng_a.bit_generator.state == rng_b.bit_generator.state
    )


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("shape", ["straddle", "positive", "mixed", "huge"])
def test_stratified_box_samples_match_the_orthant_loop(n, shape):
    box = _boxes(n)[shape]
    for count in COUNTS:
        rng_new, rng_old = _rng(count), _rng(count)
        new = _stratified_box_samples(rng_new, box, count)
        old = sampler_oracle._stratified_box_samples(rng_old, box, count)
        assert _same(rng_new, new, rng_old, old), count


class _Disk:
    """values of |x|^2 - 1, the one component of the unit ball's system."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self, X):
        return ((X * X).sum(axis=1, keepdims=True) - 1.0,)


@pytest.mark.parametrize("n", range(1, 6))
def test_boundary_pairs_match_the_pair_loop(n):
    # The pairs depend on the box only through the number of samples
    # outside S, so the counts take the four boxes in turn.
    boxes = list(_boxes(n).values())
    comp = _Disk(n)
    for count in COUNTS:
        box = boxes[count % len(boxes)]
        rng = _rng(count)
        # From 1 to 37 base samples and 1 to 7 anchors inside the ball.
        base = _stratified_box_samples(rng, box, 1 + count % 37)
        anchors = rng.uniform(-0.5, 0.5, size=(1 + count % 7, n)) / np.sqrt(n)
        rng_new, rng_old = copy.deepcopy(rng), copy.deepcopy(rng)
        new = _boundary_biased_samples(rng_new, comp, base, anchors, count)
        old = sampler_oracle._boundary_biased_samples(rng_old, comp, base, anchors, count)
        assert _same(rng_new, new, rng_old, old), count
