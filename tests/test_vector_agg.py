"""Vectorized aggregation & join-probe kernels: bit-exact float parity.

The contract under test (DESIGN.md section 9): the NumPy group-by fold
kernels in ``executor/agg_kernels.py`` reproduce the serial accumulator
byte-for-byte — including non-associative float SUM/AVG, signed zeros,
infinities and NaN — so the batch executor's column-space leaf pipelines
aggregate entirely in column space.  Plus the join-probe kernel's exact
emission-order parity with late materialisation, and the import-time fold
probes failing closed.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.executor import agg_kernels
from repro.executor.agg_kernels import (
    ProbeIndex,
    factorize_array,
    factorize_values,
    float_group_sums,
    int_group_sums,
    kernels_available,
    minmax_group_fold,
    object_group_minmax,
    object_group_sums,
)
from repro.executor.chunk import typed

from .test_columnar import assert_bit_identical, dispatch, dispatch_rows

pytestmark = pytest.mark.hashseed


def bits(x: float) -> bytes:
    """The exact 8 bytes of a float — -0.0 != 0.0, NaN payloads compared."""
    return struct.pack("<d", x)


def serial_sum(values):
    """The serial accumulator verbatim: int 0 start, NULLs skipped."""
    total = 0
    for v in values:
        if v is not None:
            total += v
    return total


ADVERSARIAL = [
    1e300, -1e300, 0.1, -0.1, 1e-300, -1e-300, -0.0, 0.0,
    1.0, -1.0, 1e16, 1.0 + 2**-52, 0.3333333333333333, 2.5,
]


# ----------------------------------------------------------------------
# Fold kernels (satellite: edge cases with bit parity)
# ----------------------------------------------------------------------


class TestFloatSums:
    def test_kernels_probe_passed(self):
        assert kernels_available()

    def test_random_groups_bit_parity(self):
        rng = random.Random(42)
        for __trial in range(60):
            n_groups = rng.randrange(1, 9)
            n = rng.randrange(n_groups, 400)
            codes = [rng.randrange(n_groups) for i in range(n)]
            for g in range(n_groups):  # every group owns >= 1 row
                codes[g] = g
            values = [rng.choice(ADVERSARIAL) for __ in range(n)]
            got = float_group_sums(
                np.asarray(values, dtype=np.float64),
                np.asarray(codes, dtype=np.int64),
                n_groups,
            )
            for g in range(n_groups):
                expect = serial_sum(v for c, v in zip(codes, values) if c == g)
                assert bits(got[g]) == bits(expect)

    def test_single_row_groups(self):
        values = np.asarray([-0.0, 1e300, -1e-300], dtype=np.float64)
        codes = np.asarray([0, 1, 2], dtype=np.int64)
        got = float_group_sums(values, codes, 3)
        # Serial starts each group at int 0, so 0 + -0.0 == +0.0.
        assert bits(got[0]) == bits(0.0)
        assert bits(got[1]) == bits(1e300)
        assert bits(got[2]) == bits(-1e-300)

    def test_all_rows_one_group(self):
        rng = random.Random(7)
        values = [rng.choice(ADVERSARIAL) for __ in range(257)]
        got = float_group_sums(
            np.asarray(values, dtype=np.float64),
            np.zeros(len(values), dtype=np.int64),
            1,
        )
        assert bits(got[0]) == bits(serial_sum(values))

    def test_overflow_to_inf_matches_serial(self):
        values = np.asarray([1e308, 1e308, -1e308], dtype=np.float64)
        codes = np.zeros(3, dtype=np.int64)
        # Serial: 1e308 + 1e308 -> inf, inf + -1e308 -> inf.
        assert float_group_sums(values, codes, 1) == [serial_sum(values.tolist())]
        mixed = np.asarray([1e308, 1e308, float("-inf")], dtype=np.float64)
        got = float_group_sums(mixed, codes, 1)[0]
        assert np.isnan(got)  # inf + -inf, like the serial fold

    def test_counts_are_exact_powers_of_two(self):
        # Boundary lengths around the pow-2 size classes, one group each.
        lengths = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65]
        values, codes = [], []
        rng = random.Random(3)
        for g, length in enumerate(lengths):
            run = [rng.choice(ADVERSARIAL) for __ in range(length)]
            values.extend(run)
            codes.extend([g] * length)
        got = float_group_sums(
            np.asarray(values, dtype=np.float64),
            np.asarray(codes, dtype=np.int64),
            len(lengths),
        )
        for g in range(len(lengths)):
            expect = serial_sum(v for c, v in zip(codes, values) if c == g)
            assert bits(got[g]) == bits(expect)


def serial_group_sums(values, codes, n_groups):
    """``total = 0; total += v`` per group, in row order — the oracle."""
    totals = [0] * n_groups
    for code, value in zip(codes, values):
        totals[code] += value
    return [float(t) for t in totals]


class TestLongRunFold:
    """Runs of ``LONG_RUN`` values or more fold by ``np.add.accumulate``,
    shorter ones through the padded matrix; both must equal the Python
    loop bit for bit, whichever side of the threshold a run falls on."""

    INF, NAN = float("inf"), float("nan")

    def check(self, values, codes, n_groups):
        got = float_group_sums(
            np.asarray(values, dtype=np.float64),
            np.asarray(codes, dtype=np.int64),
            n_groups,
        )
        expect = serial_group_sums(values, codes, n_groups)
        assert [bits(v) for v in got] == [bits(v) for v in expect]

    def test_probe_passed(self):
        assert agg_kernels._ACCUMULATE_OK

    @pytest.mark.parametrize(
        "pattern",
        [
            [1e16, 1.0, -1e16],
            [-0.0],
            [INF, 1.0, 2.0],
            [1.0, INF, -INF, 1.0],
            [1.0, NAN, 2.0],
            [1e308, 1e308, -1e308],
            [0.1, 0.2, 0.3],
        ],
        ids=["cancel", "negzero", "inf", "inf-inf", "nan", "overflow", "tenths"],
    )
    @pytest.mark.parametrize(
        "length",
        [agg_kernels.LONG_RUN - 1, agg_kernels.LONG_RUN, agg_kernels.LONG_RUN + 1, 1000],
    )
    def test_adversarial_runs_straddling_the_threshold(self, pattern, length):
        run = (pattern * (length // len(pattern) + 1))[:length]
        self.check(run, [0] * length, 1)

    def test_long_and_short_groups_interleaved(self):
        rng = random.Random(17)
        lengths = [1, 3, 63, 64, 65, 200, 2, 5000, 64, 17]
        codes = [g for g, length in enumerate(lengths) for __ in range(length)]
        rng.shuffle(codes)  # runs interleave in row order
        values = [rng.choice(ADVERSARIAL) for __ in codes]
        self.check(values, codes, len(lengths))

    def test_one_group_and_ten_thousand_groups(self):
        rng = random.Random(23)
        values = [rng.choice(ADVERSARIAL) for __ in range(40_000)]
        self.check(values, [0] * len(values), 1)
        codes = [i % 10_000 for i in range(len(values))]
        self.check(values, codes, 10_000)

    def test_accumulate_probe_fails_closed(self, monkeypatch):
        # A NumPy whose accumulate stopped being a strict left fold must
        # leave results untouched: long runs take the (verified) matrix.
        calls = []
        real = agg_kernels._accumulate_sum
        monkeypatch.setattr(
            agg_kernels, "_accumulate_sum",
            lambda *args: calls.append(1) or real(*args),
        )
        run = [1e16, 1.0, -1e16] * 400
        self.check(run, [0] * len(run), 1)
        assert calls
        del calls[:]
        monkeypatch.setattr(agg_kernels, "_ACCUMULATE_OK", False)
        self.check(run, [0] * len(run), 1)
        assert not calls
        # ... and with the matrix probe failed too, no kernel at all.
        monkeypatch.setattr(agg_kernels, "_KERNELS_OK", False)
        assert not kernels_available()


def unique_factorize(array):
    """The sort-based factorization — the dense path's oracle."""
    uniq, first, inverse = np.unique(array, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank[inverse], uniq[order], first[order]


class TestDenseFactorizationAndRadixLayout:
    def same(self, array):
        got = factorize_array(array)
        expect = unique_factorize(array)
        for g, e in zip(got, expect):
            assert g.tolist() == e.tolist()
        return got

    def test_dense_equals_sorted(self):
        rng = random.Random(31)
        for __trial in range(40):
            n = rng.randrange(1, 600)
            low = rng.choice([-1, 0, -50, 10**9, -(10**9)])
            width = rng.choice([1, 2, 7, 300, 5000])
            values = [low + rng.randrange(width) for __ in range(n)]
            for dtype in (np.int64, np.int32):
                self.same(np.asarray(values, dtype=dtype))

    def test_null_codes_and_negative_minimum(self):
        codes, keys, firsts = self.same(
            np.asarray([2, -1, 2, 0, -1, 1], dtype=np.int32)
        )
        assert keys.tolist() == [2, -1, 0, 1]
        assert firsts.tolist() == [0, 1, 3, 5]
        assert codes.tolist() == [0, 1, 0, 2, 1, 3]

    def test_span_just_below_and_above_the_dense_limit(self):
        floor = agg_kernels._DENSE_SPAN_FLOOR
        for span in (floor, floor + 1):
            array = np.asarray([5, 5 + span - 1, 5, 7], dtype=np.int64)
            self.same(array)
        # Above the floor the limit scales with the row count.
        rows = floor
        for span in (8 * rows, 8 * rows + 1):
            array = np.zeros(rows, dtype=np.int64)
            array[1] = span - 1
            self.same(array)

    def test_empty_array(self):
        codes, keys, firsts = factorize_array(np.asarray([], dtype=np.int64))
        assert len(codes) == len(keys) == len(firsts) == 0

    @pytest.mark.parametrize("n_groups", [1, 2, 256, 257, 65_536, 65_537])
    def test_radix_layout_equals_int64_stable_argsort(self, n_groups):
        rng = random.Random(n_groups)
        codes = np.asarray(
            list(range(n_groups))
            + [rng.randrange(n_groups) for __ in range(3000)],
            dtype=np.int64,
        )
        rng.shuffle(codes)
        counts, order, starts = agg_kernels.group_layout(codes, n_groups)
        assert order.tolist() == np.argsort(codes, kind="stable").tolist()
        assert counts.tolist() == np.bincount(codes, minlength=n_groups).tolist()
        assert starts.tolist() == (np.cumsum(counts) - counts).tolist()



class TestIntAndObjectSums:
    def test_int_sums_exact(self):
        values = np.asarray([2**40, -(2**40), 17, 1], dtype=np.int64)
        codes = np.asarray([0, 0, 1, 1], dtype=np.int64)
        assert int_group_sums(values, codes, 2) == [0, 18]

    def test_int_overflow_falls_back_to_object(self):
        # Partial sums would wrap int64; the object-dtype fold keeps
        # arbitrary-precision Python ints, exactly like serial.
        big = 2**62
        values = np.asarray([big, big, big], dtype=np.int64)
        codes = np.zeros(3, dtype=np.int64)
        assert int_group_sums(values, codes, 1) == [3 * big]

    def test_object_sums_null_only_group(self):
        # All-NULL group keeps the serial int-0 start; NULLs skip.
        totals = object_group_sums([None, 5, None, 2.5], [0, 1, 0, 1], 2)
        assert totals[0] == 0 and type(totals[0]) is int
        assert totals[1] == 7.5

    def test_empty_input(self):
        assert object_group_sums([], [], 0) == []
        assert object_group_minmax([], [], 0, True) == []


class TestMinMaxFolds:
    def test_signed_zero_keeps_first(self):
        values = np.asarray([-0.0, 0.0, 0.0, -0.0], dtype=np.float64)
        codes = np.asarray([0, 0, 1, 1], dtype=np.int64)
        # Serial strict < / > keeps the first occurrence on ties.
        assert bits(minmax_group_fold(values, codes, 2, False)[0]) == bits(-0.0)
        assert bits(minmax_group_fold(values, codes, 2, True)[0]) == bits(-0.0)
        assert bits(minmax_group_fold(values, codes, 2, False)[1]) == bits(0.0)
        assert bits(minmax_group_fold(values, codes, 2, True)[1]) == bits(0.0)

    def test_nan_matches_serial_keep_first(self):
        nan = float("nan")
        for run in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [2.0, 1.0, nan], [nan]):
            values = np.asarray(run, dtype=np.float64)
            codes = np.zeros(len(run), dtype=np.int64)
            for maximum in (False, True):
                got = minmax_group_fold(values, codes, 1, maximum)[0]
                best = None
                for v in run:
                    if best is None or (v > best if maximum else v < best):
                        best = v
                assert bits(got) == bits(best)

    def test_object_minmax_null_only_group(self):
        assert object_group_minmax([None, None], [0, 0], 1, False) == [None]
        assert object_group_minmax([None, 3], [0, 0], 1, True) == [3]


class TestFactorization:
    def test_first_occurrence_order(self):
        codes, keys, firsts = factorize_array(
            np.asarray([7, 3, 7, 9, 3], dtype=np.int64)
        )
        assert codes.tolist() == [0, 1, 0, 2, 1]
        assert keys.tolist() == [7, 3, 9]
        assert firsts.tolist() == [0, 1, 3]

    def test_values_replicate_serial_dict_semantics(self):
        nan_a, nan_b = float("nan"), float("nan")
        seq = [nan_a, 0.0, nan_b, -0.0, nan_a]
        codes, keys = factorize_values(seq)
        # Each distinct NaN object is its own group; the same object
        # repeats its group.  0.0 and -0.0 share the first-seen key.
        assert codes.tolist() == [0, 1, 2, 1, 0]
        assert keys[0] is nan_a and keys[2] is nan_b
        assert bits(keys[1]) == bits(0.0)


# ----------------------------------------------------------------------
# ProbeIndex (vectorized join probe)
# ----------------------------------------------------------------------


def serial_pairs(build_keys, probe_keys):
    """The serial hash join's (build row, probe row) pairs, in emission
    order: a dict of buckets, probed row by row."""
    table = {}
    for row, key in enumerate(build_keys):
        table.setdefault(key, []).append(row)
    return [
        (brow, prow)
        for prow, key in enumerate(probe_keys)
        for brow in table.get(key, ())
    ]


def index_pairs(index, probe_columns):
    """The same pairs from a ProbeIndex answer (slots are positions in the
    build side sorted by ``index.order``)."""
    slots, matched, counts = index.probe(probe_columns)
    if counts is not None:
        matched = np.repeat(matched, counts)
    return list(zip(index.order[slots].tolist(), matched.tolist()))


class TestProbeIndex:
    def test_matches_serial_probe_order(self):
        rng = random.Random(13)
        build_keys = [rng.choice(range(50)) for __ in range(60)]
        index = ProbeIndex([typed(build_keys)])
        assert index.encoders[0].low is not None  # a dense domain: offsets
        probe_keys = [rng.randrange(60) for __ in range(200)]
        expect = serial_pairs(build_keys, probe_keys)
        for dtype in (np.int64, np.int32):  # narrow-stored key columns too
            probe = np.asarray(probe_keys, dtype=dtype)
            assert index_pairs(index, [probe]) == expect
            # Late materialisation: only probe rows with a match are named.
            __, matched, __c = index.probe([probe])
            assert matched.tolist() == [
                i for i, key in enumerate(probe_keys) if key in set(build_keys)
            ]

    def test_sparse_keys_probe_by_searchsorted(self):
        # A key domain too sparse for direct addressing is coded by rank
        # among the sorted distinct keys; same emission order.
        build_keys = [0, 10**12, 10**12, -(10**12)]
        index = ProbeIndex([typed(build_keys)])
        assert index.encoders[0].distinct is not None
        probe_keys = [10**12, 5, -(10**12), 0, 10**12, 2**62]
        assert index_pairs(index, [typed(probe_keys)]) == serial_pairs(
            build_keys, probe_keys
        )

    def test_empty_build_side_matches_nothing(self):
        for columns in ([typed([])], [typed([]), typed([])]):
            index = ProbeIndex(columns)
            probe = [np.asarray([1, 2], dtype=np.int64)] * len(columns)
            assert index_pairs(index, probe) == []

    def test_rejects_non_int_build_keys(self):
        # bool/float equal ints under Python == but not under int64
        # compare, and 2**70 does not fit: any such key sends the column
        # through the dict coding — the serial lookup's own equality.
        for build_keys in ([True, 3], [2.0, 3], [2**70, 3], [None, 3]):
            index = ProbeIndex([typed(build_keys)])
            assert index.encoders[0].table is not None
            probe_keys = [1, 2, 3, 2**70, None, 1.0, 2.0, "x"]
            assert index_pairs(index, [typed(probe_keys)]) == serial_pairs(
                build_keys, probe_keys
            )
        # ... and an int64 build column meets a non-int64 probe column the
        # same way, from its distinct values.
        index = ProbeIndex([typed([1, 2, 2, 10**12])])
        probe_keys = [2.0, True, 10**12, None, 3]
        assert index_pairs(index, [typed(probe_keys)]) == serial_pairs(
            [1, 2, 2, 10**12], probe_keys
        )

    def test_dict_keys_null_and_absent(self):
        class Dictionary:
            values = ["red", "blue"]

        # "green" is absent from the probe dictionary (no match); NULL
        # probe codes (-1) match a NULL build key, like the serial dict's
        # None == None lookup.
        build_keys = ["blue", None, "green", "blue"]
        index = ProbeIndex([typed(build_keys)])
        codes = np.asarray([1, -1, 0, 1], dtype=np.int32)
        decoded = ["blue", None, "red", "blue"]
        got = index_pairs(index, [(codes, Dictionary())])
        assert got == serial_pairs(build_keys, decoded)
        assert (1, 1) in got  # serial None == None semantics

    def test_several_key_columns_combine_exactly(self):
        rng = random.Random(5)
        build = [
            [rng.randrange(6) for __ in range(80)],
            [rng.choice(["a", "b", None]) for __ in range(80)],
            [rng.choice([1, 1.0, 2**70]) for __ in range(80)],
        ]
        probe = [
            [rng.randrange(8) for __ in range(150)],
            [rng.choice(["a", "b", "c", None]) for __ in range(150)],
            [rng.choice([1, True, 2**70, 7]) for __ in range(150)],
        ]
        expect = serial_pairs(list(zip(*build)), list(zip(*probe)))
        index = ProbeIndex([typed(column) for column in build])
        assert index_pairs(index, [typed(column) for column in probe]) == expect
        # Wide code spaces fold without overflowing: a combined key is
        # re-ranked among the build side's own combinations.
        wide = [[i * 2**40 for i in range(400)] for __ in range(5)]
        index = ProbeIndex([typed(column) for column in wide])
        probe = [typed(column[::-1][:100] + [3]) for column in wide]
        assert index_pairs(index, probe) == [(399 - i, i) for i in range(100)]


# ----------------------------------------------------------------------
# End-to-end parity: float aggregates across modes and sizes
# ----------------------------------------------------------------------


def _float_db(batch_size: int = 64, rows: int = 900) -> Database:
    db = Database(EngineConfig(batch_size=batch_size))
    db.create_table(
        "m",
        [
            ("g", DataType.INTEGER),
            ("h", DataType.STRING),
            ("x", DataType.FLOAT),
            ("y", DataType.INTEGER),
        ],
    )
    rng = random.Random(11)
    db.load_rows(
        "m",
        [
            (i % 7, f"s{i % 5}", rng.choice(ADVERSARIAL), i % 13)
            for i in range(rows)
        ],
    )
    return db


FLOAT_AGG_QUERIES = [
    "SELECT g, SUM(x), AVG(x), COUNT(*) FROM m GROUP BY g",
    "SELECT AVG(x), SUM(x) FROM m",
    "SELECT h, SUM(x), MIN(x), MAX(x) FROM m WHERE y < 9 GROUP BY h",
    "SELECT g, h, SUM(x) FROM m WHERE g < 5 GROUP BY g, h",
]


class TestEndToEndFloatParity:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1024])
    def test_columnar_parity_at_any_page_group_size(self, batch_size):
        db = _float_db(batch_size=batch_size)
        for sql in FLOAT_AGG_QUERIES:
            plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
            col_result, col_ctx = dispatch(db, plan)
            row_result, row_ctx = dispatch_rows(db, plan)
            assert col_ctx.vector.agg_pipelines == 1
            assert_bit_identical(col_result, col_ctx, row_result, row_ctx)

    def test_columnar_uses_vector_kernels(self):
        db = _float_db()
        sql = FLOAT_AGG_QUERIES[0]
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        result, ctx = dispatch(db, plan)
        assert ctx.vector.agg_pipelines == 1
        assert ctx.vector.rows_folded > 0
        # The aggregate never asks for a row: nothing is materialised.
        (leaf,) = ctx.columnar.leaf.values()
        assert leaf["kernel"] == "column"
        assert leaf["rows_materialised"] == 0
        # Fold probe failed at import: same bytes, no kernel use.
        row_result, row_ctx = dispatch_rows(db, plan)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(agg_kernels, "_KERNELS_OK", False)
            off_result, off_ctx = dispatch(db, plan)
        assert off_ctx.vector.agg_pipelines == 0
        assert_bit_identical(result, ctx, row_result, row_ctx)
        assert_bit_identical(off_result, off_ctx, row_result, row_ctx)

    def test_dictionary_overflow_groups_through_object_path(self):
        # > columnar_dictionary_max distinct strings demote the column to
        # object encoding; group-by on it must still hold byte parity.
        db = Database(EngineConfig(batch_size=32, columnar_dictionary_max=16))
        db.create_table(
            "t", [("s", DataType.STRING), ("x", DataType.FLOAT)]
        )
        rng = random.Random(21)
        db.load_rows(
            "t",
            [(f"k{i % 40}", rng.choice(ADVERSARIAL)) for i in range(600)],
        )
        sql = "SELECT s, SUM(x), COUNT(*) FROM t GROUP BY s"
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        row_result, row_ctx = dispatch_rows(db, plan)
        col_result, col_ctx = dispatch(db, plan)
        assert col_ctx.vector.agg_pipelines == 1
        assert_bit_identical(col_result, col_ctx, row_result, row_ctx)

    def test_probe_kernel_parity_and_knob(self):
        db = build_database(ExperimentConfig(scale_factor=0.01))
        sql = (
            "SELECT o_orderkey, l_extendedprice FROM orders, lineitem "
            "WHERE o_orderkey = l_orderkey AND o_custkey < 300"
        )
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        row_result, row_ctx = dispatch_rows(db, plan)
        on_result, on_ctx = dispatch(db, plan)
        assert on_ctx.vector.probe_pipelines >= 1
        assert_bit_identical(on_result, on_ctx, row_result, row_ctx)
        # The probe side (lineitem, a bare scan) passes its matches on as
        # row ids; the tuples built are the join's, for the result it emits.
        lineitem = next(
            record
            for record in on_ctx.columnar.leaf.values()
            if record["table"] == "lineitem"
        )
        assert lineitem["kernel"] == "column"
        assert lineitem["rows_materialised"] == 0 < lineitem["rows_selected"]
        assert on_ctx.vector.join_total("rows_materialised") == len(on_result.rows) > 0
        # The knob is gone: which probe runs is the executor's choice.
        with pytest.raises(TypeError):
            db.config.with_updates(vectorized_probe=False)

    def test_profile_and_metrics_surface_vector_counters(self):
        from repro.observe.metrics import MetricsRegistry

        registry = MetricsRegistry()
        db = Database(
            EngineConfig(batch_size=64),
            metrics=registry,
        )
        db.create_table("t", [("g", DataType.INTEGER), ("x", DataType.FLOAT)])
        db.load_rows("t", [(i % 5, float(i) * 0.1) for i in range(400)])
        result = db.execute("SELECT g, SUM(x) FROM t GROUP BY g")
        assert result.profile.vectorized_agg_pipelines == 1
        assert result.profile.rows_folded > 0
        assert "vectorized:" in result.profile.summary()
        snap = registry.snapshot()
        assert snap["vector.agg_pipelines"]["value"] >= 1
        assert snap["vector.rows_folded"]["value"] > 0
