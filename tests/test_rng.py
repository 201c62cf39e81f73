"""Random streams: block draws equal numpy's scalar draws, bit for bit."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnav import GeometricProblem, Point2, Region
from semnav.rng import _BLOCK, _FIRST, Stream, make_stream


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _bits(x: float) -> str:
    return float(x).hex()


_BOUND = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, -1e300])
          | st.floats(-1e6, 1e6) | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), order=st.integers(0, 2**32 - 1),
       bounds=st.lists(st.tuples(_BOUND, _BOUND), min_size=1, max_size=8))
@example(seed=0, order=0, bounds=[(0.0, 0.0)])
@example(seed=2**64 - 1, order=1, bounds=[(-0.0, 0.0), (1e300, 1.7e308)])
def test_stream_interleaves_draws_as_the_generator_does(seed, order, bounds):
    ours, theirs = make_stream(seed), _generator(seed)
    pick = random.Random(order)
    # every call that returns takes one double; cross at least three block ends
    drawn, target = 0, 3 * _BLOCK + 1 + pick.randrange(_BLOCK)
    while drawn < target:
        if pick.random() < 0.5:
            assert _bits(ours.random()) == _bits(theirs.random())
            drawn += 1
            continue
        lo, hi = sorted(pick.choice(bounds))
        try:
            want = theirs.uniform(lo, hi)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                ours.uniform(lo, hi)
            continue
        got = ours.uniform(lo, hi)
        assert type(got) is float
        assert _bits(got) == _bits(want)
        drawn += 1
    assert _bits(ours.random()) == _bits(theirs.random())


@pytest.mark.parametrize("lo, hi, error", [
    (1.0, 0.0, ValueError), (0.0, -1e-300, ValueError), (0.0, -0.0, ValueError),
    (0.0, math.inf, OverflowError), (-math.inf, 0.0, OverflowError),
    (math.nan, 1.0, OverflowError), (0.0, math.nan, OverflowError),
    (-1e308, 1e308, OverflowError), (math.inf, math.inf, OverflowError),
])
@pytest.mark.parametrize("drawn", [0, 1, _FIRST - 1, _FIRST, _BLOCK - 1, _BLOCK,
                                   _FIRST + _BLOCK - 1, _FIRST + _BLOCK])
def test_stream_rejects_a_bad_range_before_drawing(lo, hi, error, drawn):
    ours, theirs = make_stream(7), _generator(7)
    for _ in range(drawn):
        assert ours.random() == theirs.random()
    with pytest.raises(error):
        theirs.uniform(lo, hi)
    with pytest.raises(error):
        ours.uniform(lo, hi)
    # neither took a draw
    assert _bits(ours.random()) == _bits(theirs.random())
    assert _bits(ours.uniform(-0.0, 0.0)) == _bits(theirs.uniform(-0.0, 0.0))


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
@pytest.mark.parametrize("kind", ["random", "uniform"])
def test_stream_matches_scalar_draws_across_the_first_and_later_blocks(seed, kind):
    # the first block holds _FIRST doubles and every later one _BLOCK: compare
    # every draw up to just past the third block end
    ours, theirs = make_stream(seed), _generator(seed)
    n = _FIRST + 2 * _BLOCK + 1
    if kind == "random":
        got = [ours.random() for _ in range(n)]
        want = [theirs.random() for _ in range(n)]
    else:
        got = [ours.uniform(-2.5, 7.0) for _ in range(n)]
        want = [theirs.uniform(-2.5, 7.0) for _ in range(n)]
    assert [_bits(x) for x in got] == [_bits(x) for x in want]


def test_stream_first_draw_takes_a_small_block():
    ours, theirs = make_stream(3), _generator(3)
    ours.random()
    theirs.random(_FIRST)
    # the generator behind the stream has handed out exactly _FIRST doubles
    assert ours._gen.random() == theirs.random()

def test_make_stream_keys_by_the_low_64_bits():
    a, b = make_stream(3), make_stream(3 + 2**64)
    assert isinstance(a, Stream)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert make_stream(-1).random() == _generator(2**64 - 1).random()


@pytest.mark.parametrize("allowed", [None, frozenset({"r1", "r3"})])
def test_region_draws_the_same_from_a_stream_and_a_generator(threeroom_map, allowed):
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(10.0, 2.0),
                               allowed_rooms=allowed)
    region = Region(threeroom_map, problem)
    ours, theirs = make_stream(5), _generator(5)
    for _ in range(300):
        assert region.sample(ours, 0.05) == region.sample(theirs, 0.05)
        assert region.sample_informed(9.0, ours) == region.sample_informed(9.0, theirs)
    assert ours.random() == theirs.random()
