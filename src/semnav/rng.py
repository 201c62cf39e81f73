"""Deterministic random streams.

Every stochastic component draws from a counter-based Philox generator keyed by
an explicit 64-bit seed. Streams with different keys are statistically
independent, so per-planner and per-subproblem seeds can be derived with plain
integer mixing without risk of overlap.

A stream draws its doubles from the generator in blocks, ``_FIRST`` on its
first draw and ``_BLOCK`` after that, and hands them out one at a time, so it
gives, in order, exactly the values that the generator's scalar ``random()``
and ``uniform(lo, hi)`` calls give, at a fraction of their per-call cost. The
small first block serves the many streams that take only a few draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
# doubles drawn from the generator at a time: on a stream's first draw, and later
_FIRST = 8
_BLOCK = 256
_INF = math.inf


def mix(*parts: int) -> int:
    """Mix integers into a 64-bit seed (splitmix64-style finalizer per part)."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        z = (h + (part & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
    return h & _MASK64


class Stream:
    """Uniform doubles of one Philox generator, drawn in blocks.

    ``random()`` and ``uniform(lo, hi)`` return the Python floats that the
    generator's own scalar calls would return, in the same order: a block
    fill draws the same doubles as that many scalar ``random()`` calls, and
    ``uniform`` is ``lo + (hi - lo) * u``, the arithmetic of numpy's
    ``random_uniform``, for float bounds. Like numpy, ``uniform`` raises
    ``OverflowError`` for a non-finite ``hi - lo`` and ``ValueError`` for a
    negative one (``-0.0`` included) before it takes a draw.
    """

    __slots__ = ("_gen", "_next", "_size")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._next = iter(()).__next__
        self._size = _FIRST

    def _refill(self) -> float:
        self._next = iter(self._gen.random(self._size).tolist()).__next__
        self._size = _BLOCK
        return self._next()

    def random(self) -> float:
        """One double in [0, 1)."""
        try:
            return self._next()
        except StopIteration:
            return self._refill()

    def uniform(self, lo: float, hi: float) -> float:
        """One double in [lo, hi)."""
        span = hi - lo
        if not 0.0 < span < _INF:
            if not -_INF < span < _INF:
                raise OverflowError("high - low range exceeds valid bounds")
            if math.copysign(1.0, span) < 0.0:
                raise ValueError("high - low < 0")
        try:
            u = self._next()
        except StopIteration:
            u = self._refill()
        return lo + span * u


def make_stream(seed: int) -> Stream:
    """Independent counter-based stream for the given seed."""
    return Stream(np.random.Generator(np.random.Philox(key=seed & _MASK64)))
