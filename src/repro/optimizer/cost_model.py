"""The cost model.

One set of formulas serves two callers:

* the **optimizer**, which evaluates them on *estimated* cardinalities to
  cost candidate plans and to annotate the chosen plan, and
* the **executor**, which evaluates them on *actual* row counts to charge
  the simulated cost clock.

Because both sides share the formulas, estimated and actual costs diverge
only through cardinality errors — which is exactly the discrepancy the
Dynamic Re-Optimization algorithm detects and corrects.

Costs are returned as an :class:`OperatorCost` (pages of sequential/random
reads and writes plus CPU units); ``total_units`` converts to clock units
with the configured :class:`~repro.config.CostParameters`.

Memory-consuming operators (hybrid hash join, sort, hash aggregation) also
expose ``(min, max)`` page demands: the minimum is the classical
``sqrt(F * B)`` bound below which partitioning degenerates, the maximum is a
one-pass grant.  The hybrid spill fraction for a grant ``M`` against a need
``F * B`` is ``1 - M / (F * B)`` — granting the minimum therefore makes the
join run in (roughly) two passes, reproducing the paper's Figure 3 scenario.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..config import CostParameters, EngineConfig


class OperatorCost(NamedTuple):
    """Resource consumption of one operator invocation (an immutable record:
    the join enumerator builds thousands per plan)."""

    seq_read_pages: float = 0.0
    rand_read_pages: float = 0.0
    write_pages: float = 0.0
    cpu_units: float = 0.0
    stats_cpu_units: float = 0.0

    def total_units(self, params: CostParameters) -> float:
        """Convert to scalar cost units."""
        return (
            self.seq_read_pages * params.seq_page_read
            + self.rand_read_pages * params.rand_page_read
            + self.write_pages * params.page_write
            + self.cpu_units
            + self.stats_cpu_units
        )


def pages_for(rows: float, row_bytes: float, page_size: int) -> float:
    """Pages needed for ``rows`` rows of ``row_bytes`` each (>= 1 when rows > 0)."""
    if rows <= 0:
        return 0.0
    per_page = max(1.0, page_size / max(1.0, row_bytes))
    return max(1.0, math.ceil(rows / per_page))


class CostModel:
    """Cost formulas parameterised by the engine configuration."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.params = config.cost

    # -- scans ------------------------------------------------------------

    def seq_scan(self, pages: float, rows: float) -> OperatorCost:
        """Full sequential scan."""
        return OperatorCost(
            seq_read_pages=pages,
            cpu_units=rows * self.params.cpu_per_tuple,
        )

    def index_scan(
        self,
        height: int,
        entries_per_leaf: int,
        matches: float,
        clustered: bool,
        rows_per_page: int,
        table_pages: float,
    ) -> OperatorCost:
        """Index traversal + leaf scan + row fetches."""
        leaf_pages = math.ceil(matches / entries_per_leaf) if matches > 0 else 0
        if clustered:
            fetch_seq = math.ceil(matches / max(1, rows_per_page)) if matches > 0 else 0
            fetch_rand = 0.0
        else:
            fetch_seq = 0.0
            fetch_rand = min(matches, table_pages)
        return OperatorCost(
            seq_read_pages=leaf_pages + fetch_seq,
            rand_read_pages=height + fetch_rand,
            cpu_units=matches * self.params.cpu_per_tuple,
        )

    # -- tuple-at-a-time operators -----------------------------------------

    def filter(self, input_rows: float, predicate_count: int) -> OperatorCost:
        """Predicate evaluation over a stream."""
        return OperatorCost(
            cpu_units=input_rows * max(1, predicate_count) * self.params.cpu_per_compare
        )

    def project(self, input_rows: float) -> OperatorCost:
        """Scalar projection."""
        return OperatorCost(cpu_units=input_rows * self.params.cpu_per_tuple)

    def collector(self, input_rows: float, statistic_count: int) -> OperatorCost:
        """Statistics collection overhead (paper section 2.5).

        Cardinality/size/min-max tracking costs ``cpu_stats_per_tuple``; each
        budgeted statistic (histogram reservoir, distinct sketch) adds
        ``cpu_stats_per_statistic`` per tuple.
        """
        per_tuple = (
            self.params.cpu_stats_per_tuple
            + statistic_count * self.params.cpu_stats_per_statistic
        )
        return OperatorCost(stats_cpu_units=input_rows * per_tuple)

    def limit(self, output_rows: float) -> OperatorCost:
        """LIMIT costs a tuple touch per emitted row."""
        return OperatorCost(cpu_units=output_rows * self.params.cpu_per_tuple)

    # -- hash join ----------------------------------------------------------

    def hash_join_memory(self, build_pages: float) -> tuple[int, int]:
        """``(min, max)`` page demands for a hybrid hash join."""
        need = self.config.hash_fudge_factor * max(1.0, build_pages)
        minimum = max(2, math.ceil(math.sqrt(need)) + 1)
        maximum = max(minimum, math.ceil(need) + 1)
        return minimum, maximum

    def hash_join_spill_fraction(self, build_pages: float, memory_pages: float) -> float:
        """Fraction of both inputs spilled given a memory grant."""
        need = self.config.hash_fudge_factor * max(1.0, build_pages)
        if memory_pages >= need:
            return 0.0
        return max(0.0, min(1.0, 1.0 - memory_pages / need))

    def hash_join_build(
        self, build_rows: float, build_pages: float, memory_pages: float
    ) -> OperatorCost:
        """Build phase: hash CPU plus spilling the overflow partitions."""
        spill = self.hash_join_spill_fraction(build_pages, memory_pages)
        return OperatorCost(
            write_pages=spill * build_pages,
            cpu_units=build_rows * self.params.cpu_hash_build,
        )

    def hash_join_probe(
        self,
        build_pages: float,
        probe_rows: float,
        probe_pages: float,
        output_rows: float,
        memory_pages: float,
    ) -> OperatorCost:
        """Probe phase: probe CPU, spill of probe overflow, re-read of both."""
        spill = self.hash_join_spill_fraction(build_pages, memory_pages)
        respill_io = spill * (build_pages + probe_pages)
        return OperatorCost(
            seq_read_pages=respill_io,
            write_pages=spill * probe_pages,
            cpu_units=(
                probe_rows * self.params.cpu_hash_probe
                + output_rows * self.params.cpu_per_tuple
                # Spilled build rows are re-hashed in the second pass.
                + spill * probe_rows * self.params.cpu_hash_probe
            ),
        )

    def hash_join(
        self,
        build_rows: float,
        build_pages: float,
        probe_rows: float,
        probe_pages: float,
        output_rows: float,
        memory_pages: float,
    ) -> OperatorCost:
        """:meth:`hash_join_build` plus :meth:`hash_join_probe` as one record:
        per component, the two phases' float operations and their sum, in
        that order (the build's zero components drop out exactly: counts
        are non-negative)."""
        spill = self.hash_join_spill_fraction(build_pages, memory_pages)
        params = self.params
        return OperatorCost(
            seq_read_pages=spill * (build_pages + probe_pages),
            write_pages=spill * build_pages + spill * probe_pages,
            cpu_units=build_rows * params.cpu_hash_build
            + (
                probe_rows * params.cpu_hash_probe
                + output_rows * params.cpu_per_tuple
                + spill * probe_rows * params.cpu_hash_probe
            ),
        )

    # -- indexed nested loops join ---------------------------------------------

    def index_nl_join(
        self,
        outer_rows: float,
        height: int,
        entries_per_leaf: int,
        matches_total: float,
        clustered: bool,
        inner_table_pages: float,
        output_rows: float,
    ) -> OperatorCost:
        """One index probe per outer row plus fetches for all matches."""
        probes_rand = outer_rows * height
        leaf_pages = math.ceil(matches_total / entries_per_leaf) if matches_total > 0 else 0
        if clustered:
            fetch_seq = leaf_pages
            fetch_rand = 0.0
        else:
            fetch_seq = 0.0
            fetch_rand = min(matches_total, outer_rows * inner_table_pages)
        return OperatorCost(
            seq_read_pages=leaf_pages + fetch_seq,
            rand_read_pages=probes_rand + fetch_rand,
            cpu_units=output_rows * self.params.cpu_per_tuple
            + outer_rows * self.params.cpu_per_compare,
        )

    # -- block nested loops join ---------------------------------------------

    def block_nl_join_memory(self, outer_pages: float) -> tuple[int, int]:
        """``(min, max)`` page demands for block nested loops."""
        return 3, max(3, math.ceil(outer_pages) + 2)

    def block_nl_join(
        self,
        outer_rows: float,
        outer_pages: float,
        inner_rows: float,
        inner_pages: float,
        memory_pages: float,
    ) -> OperatorCost:
        """Classic block NL: rescan inner once per outer memory block."""
        block = max(1.0, memory_pages - 2)
        blocks = math.ceil(max(1.0, outer_pages) / block)
        return OperatorCost(
            seq_read_pages=blocks * inner_pages,
            cpu_units=outer_rows * inner_rows * self.params.cpu_per_compare,
        )

    # -- sort -------------------------------------------------------------------

    def sort_memory(self, pages: float) -> tuple[int, int]:
        """``(min, max)`` page demands for an external sort."""
        minimum = max(3, math.ceil(math.sqrt(max(1.0, pages))))
        return minimum, max(minimum, math.ceil(pages) + 1)

    def sort(self, rows: float, pages: float, memory_pages: float) -> OperatorCost:
        """In-memory sort when it fits; one merge pass otherwise."""
        cpu = rows * math.log2(max(2.0, rows)) * self.params.cpu_per_compare
        if pages <= memory_pages:
            return OperatorCost(cpu_units=cpu)
        return OperatorCost(
            seq_read_pages=pages,
            write_pages=pages,
            cpu_units=cpu,
        )

    # -- aggregation ---------------------------------------------------------------

    def aggregate_memory(self, group_pages: float) -> tuple[int, int]:
        """``(min, max)`` page demands for hash aggregation."""
        need = self.config.hash_fudge_factor * max(1.0, group_pages)
        minimum = max(2, math.ceil(math.sqrt(need)) + 1)
        return minimum, max(minimum, math.ceil(need) + 1)

    def aggregate(
        self,
        input_rows: float,
        input_pages: float,
        group_pages: float,
        memory_pages: float,
    ) -> OperatorCost:
        """Hash aggregation; spills input partitions when groups overflow."""
        need = self.config.hash_fudge_factor * max(1.0, group_pages)
        cpu = input_rows * self.params.cpu_per_aggregate
        if memory_pages >= need:
            return OperatorCost(cpu_units=cpu)
        spill = max(0.0, min(1.0, 1.0 - memory_pages / need))
        return OperatorCost(
            seq_read_pages=spill * input_pages,
            write_pages=spill * input_pages,
            cpu_units=cpu * (1.0 + spill),
        )

    # -- materialization -------------------------------------------------------------

    def materialize(self, pages: float) -> OperatorCost:
        """Write an intermediate result to a temporary table."""
        return OperatorCost(write_pages=pages)
