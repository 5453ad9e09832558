"""``FlajoletMartin.add_batch`` against per-value ``add``, bit for bit.

The batch path runs Python's ``hash`` per value and everything after it —
salt, SplitMix64 finalizer, bucket, quotient, trailing-zero rank — as
``uint64`` array arithmetic.  Every bitmap must equal the one ``add``
builds value by value, for every kind of value a collector feeds it.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.distinct import _MASK, _MIX1, _MIX2, FlajoletMartin

pytestmark = pytest.mark.hashseed

VALUES = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.just(-1),  # hash(-1) == -2
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.text(max_size=8),
    st.tuples(st.integers(), st.text(max_size=4), st.floats(allow_nan=False)),
    st.none(),
)


def per_value(batches, num_maps: int, seed: int) -> FlajoletMartin:
    sketch = FlajoletMartin(num_maps=num_maps, seed=seed)
    for batch in batches:
        for value in batch:
            sketch.add(value)
    return sketch


def by_batch(batches, num_maps: int, seed: int) -> FlajoletMartin:
    sketch = FlajoletMartin(num_maps=num_maps, seed=seed)
    for batch in batches:
        sketch.add_batch(batch)
    return sketch


@given(
    batches=st.lists(st.lists(VALUES, max_size=40), max_size=4),
    num_maps=st.sampled_from([1, 3, 64]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=150, deadline=None)
def test_add_batch_equals_per_value_add(batches, num_maps, seed):
    expected = per_value(batches, num_maps, seed)
    got = by_batch(batches, num_maps, seed)
    assert got._bitmaps == expected._bitmaps
    assert repr(got.estimate()) == repr(expected.estimate())


def _unshift(y: int, shift: int) -> int:
    """Invert ``x ^= x >> shift`` on 64 bits."""
    x = y
    for __ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(y: int) -> int:
    """The input that ``_mix64`` maps to ``y`` (it is a bijection)."""
    y = _unshift(y, 31)
    y = (y * pow(_MIX2, -1, 1 << 64)) & _MASK
    y = _unshift(y, 27)
    y = (y * pow(_MIX1, -1, 1 << 64)) & _MASK
    return _unshift(y, 30)


def test_a_value_whose_mixed_hash_is_zero_ranks_63():
    # SplitMix64 maps only 0 to 0, so pick the seed whose salt is this
    # value's hash: its salted hash is 0 and every quotient bit is zero.
    value = "zero"
    seed = _unmix64(hash(value) & _MASK) ^ 0x9E3779B97F4A7C15
    batches = [[value, 1, 2.5, None]]
    expected = per_value(batches, 64, seed)
    assert expected._bitmaps[0] & (1 << 63)
    assert by_batch(batches, 64, seed)._bitmaps == expected._bitmaps


def test_empty_batch_changes_nothing():
    sketch = by_batch([[], iter(())], 8, 5)
    assert sketch._bitmaps == [0] * 8
