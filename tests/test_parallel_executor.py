"""Pickled statistics and grant splitting.

The module name is historical: there is no parallel executor (DESIGN.md
section 8).  What it tests stays on its own: a pickled ``Reservoir`` /
``HybridDistinct`` carries on like the original, and
``MemoryManager.split_grant`` (the memory broker's fair shares).
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import MemoryGrantError
from repro.executor.memory import MemoryManager
from repro.stats.distinct import HybridDistinct
from repro.stats.sampling import Reservoir


# ----------------------------------------------------------------------
# Statistics primitives survive pickling
# ----------------------------------------------------------------------


class TestPickleRoundTrip:
    def test_pickle_roundtrip_preserves_rng_stream(self):
        a = Reservoir(16, seed=3)
        a.extend(range(100))
        clone = pickle.loads(pickle.dumps(a))
        assert clone.sample == a.sample and clone.seen == a.seen
        a.extend(range(100, 200))
        clone.extend(range(100, 200))
        assert clone.sample == a.sample

    def test_hybrid_pickle_roundtrip(self):
        h = HybridDistinct(seed=11, threshold=10)
        for value in range(50):
            h.add(value)
        clone = pickle.loads(pickle.dumps(h))
        assert clone.estimate() == h.estimate()
        clone.add(999)
        h.add(999)
        assert clone.estimate() == h.estimate()


class TestSplitGrant:
    def test_shares_sum_to_grant(self):
        shares = MemoryManager.split_grant(103, 4)
        assert sum(shares) == 103
        assert max(shares) - min(shares) <= 1

    def test_zero_pages(self):
        assert MemoryManager.split_grant(0, 3) == [0, 0, 0]

    def test_invalid_partitions(self):
        with pytest.raises(MemoryGrantError):
            MemoryManager.split_grant(10, 0)
