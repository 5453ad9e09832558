"""TPC-D data generation.

A dbgen work-alike at configurable scale factor.  Two fidelity points matter
for the paper's experiments:

* **Skew** (Figure 12): with ``zipf_z > 0`` all non-key attributes are drawn
  from a generalized Zipfian distribution (Zipf [27] via [18]) instead of
  uniformly — foreign keys included, which is what moves join sizes away
  from the optimizer's uniform estimates.
* **Cross-table correlation**: ``l_shipdate`` is ``o_orderdate`` plus 1-121
  days, exactly like dbgen, so date predicates on orders and lineitem are
  correlated — an estimation-error source no single-table histogram
  captures.

``CatalogProfile`` controls what the optimizer knows: ``FRESH`` gives
MaxDiff histograms on everything (the serial-class histograms Paradise
used); ``COARSE`` gives few-bucket equi-width histograms (medium inaccuracy
potential); ``STALE`` additionally scales the fact tables' row counts and
sets the update-activity flag, modelling catalogs that were never
re-analysed after the data changed.  The
paper's misestimates at SF 3 arose naturally; at our small scale the knob
recreates comparable error magnitudes (see DESIGN.md section 3).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

import numpy as np

from ...engine.database import Database
from ...stats.histogram import HistogramKind
from ...stats.zipf import ZipfGenerator
from .schema import (
    END_DATE,
    MARKET_SEGMENTS,
    NATIONS,
    ORDER_PRIORITIES,
    PART_TYPES,
    REGIONS,
    RETURN_FLAGS,
    SHIP_MODES,
    START_DATE,
    TPCD_INDEXES,
    TPCD_KEYS,
    TPCD_SCHEMAS,
    rows_for,
)


class CatalogProfile(enum.Enum):
    """How good the optimizer's catalog statistics are."""

    FRESH = "fresh"      # MaxDiff histograms, accurate counts
    COARSE = "coarse"    # 8-bucket equi-width histograms
    STALE = "stale"      # coarse + scaled row counts + missing histograms


@dataclass(frozen=True)
class TpcdConfig:
    """Generation parameters."""

    scale_factor: float = 0.01
    #: Zipfian skew for non-key attributes; 0.0 = uniform (paper Figure 12
    #: uses 0.3 and 0.6).
    zipf_z: float = 0.0
    seed: int = 7
    catalog: CatalogProfile = CatalogProfile.COARSE
    #: Row-count error factor applied under the STALE profile.  The fact
    #: tables (lineitem, orders) are scaled by this factor; customer is
    #: scaled by its reciprocal — modelling a warehouse whose fact tables
    #: grew while a dimension shrank since the last ANALYZE, which yields
    #: both under- and over-estimates in one catalog.
    stale_row_factor: float = 0.5
    build_indexes: bool = True

    def stale_factor_for(self, table: str) -> float:
        """Per-table staleness multiplier under the STALE profile."""
        if table in ("lineitem", "orders"):
            return self.stale_row_factor
        if table == "customer":
            return 1.0 / self.stale_row_factor
        return 1.0


class _Skewed:
    """Draws skewed or uniform values over integer domains."""

    def __init__(self, z: float, seed: int) -> None:
        self.z = z
        self._rng = random.Random(seed)
        self._generators: dict[tuple[int, int], ZipfGenerator] = {}
        self._counter = 0

    def ints(self, n: int, domain: int, stream: int) -> np.ndarray:
        """``n`` integers in ``[0, domain)`` (Zipfian when z > 0)."""
        if self.z <= 0:
            rng = np.random.default_rng(self._rng.randrange(2**63) ^ stream)
            return rng.integers(0, domain, size=n)
        key = (domain, stream)
        gen = self._generators.get(key)
        if gen is None:
            gen = ZipfGenerator(domain, self.z, seed=stream * 977 + 13, permute=True)
            self._generators[key] = gen
        return gen.sample(n) - 1

    def choice(self, n: int, options: list[str], stream: int) -> list[str]:
        """``n`` categorical values (frequency-skewed when z > 0)."""
        indices = self.ints(n, len(options), stream)
        return [options[i] for i in indices]


def generate_tpcd(db: Database, config: TpcdConfig | None = None) -> TpcdConfig:
    """Generate, load, index and ANALYZE the TPC-D tables into ``db``."""
    cfg = config or TpcdConfig()
    rng = random.Random(cfg.seed)
    skew = _Skewed(cfg.zipf_z, cfg.seed + 1)

    for name, schema in TPCD_SCHEMAS.items():
        db.create_table(name, schema, key=TPCD_KEYS[name])

    # -- tiny dimension tables -------------------------------------------
    db.load_rows("region", [(i, name) for i, name in enumerate(REGIONS)])
    db.load_rows(
        "nation", [(i, name, region) for i, (name, region) in enumerate(NATIONS)]
    )

    n_supplier = rows_for("supplier", cfg.scale_factor)
    n_customer = rows_for("customer", cfg.scale_factor)
    n_part = rows_for("part", cfg.scale_factor)
    n_partsupp = rows_for("partsupp", cfg.scale_factor)
    n_orders = rows_for("orders", cfg.scale_factor)

    # -- supplier -----------------------------------------------------------
    s_nations = skew.ints(n_supplier, len(NATIONS), stream=11)
    db.load_rows(
        "supplier",
        [
            (i, f"Supplier#{i:09d}", int(s_nations[i]), round(rng.uniform(-999, 9999), 2))
            for i in range(n_supplier)
        ],
    )

    # -- customer -----------------------------------------------------------
    c_nations = skew.ints(n_customer, len(NATIONS), stream=12)
    c_segments = skew.choice(n_customer, MARKET_SEGMENTS, stream=13)
    db.load_rows(
        "customer",
        [
            (
                i,
                f"Customer#{i:09d}",
                int(c_nations[i]),
                round(rng.uniform(-999, 9999), 2),
                c_segments[i],
            )
            for i in range(n_customer)
        ],
    )

    # -- part / partsupp ---------------------------------------------------
    p_types = skew.choice(n_part, PART_TYPES, stream=14)
    p_sizes = skew.ints(n_part, 50, stream=15) + 1
    db.load_rows(
        "part",
        [
            (
                i,
                f"Part#{i:09d}",
                p_types[i],
                int(p_sizes[i]),
                round(900 + (i % 200) + (i % 1000) / 10.0, 2),
            )
            for i in range(n_part)
        ],
    )
    ps_parts = skew.ints(n_partsupp, n_part, stream=16)
    ps_supps = skew.ints(n_partsupp, n_supplier, stream=17)
    db.load_rows(
        "partsupp",
        [
            (
                int(ps_parts[i]),
                int(ps_supps[i]),
                rng.randrange(1, 10000),
                round(rng.uniform(1, 1000), 2),
            )
            for i in range(n_partsupp)
        ],
    )

    # -- orders & lineitem --------------------------------------------------
    o_custs = skew.ints(n_orders, n_customer, stream=18)
    date_span = END_DATE - START_DATE
    o_dates = skew.ints(n_orders, date_span, stream=19) + START_DATE
    o_prios = skew.choice(n_orders, ORDER_PRIORITIES, stream=20)
    order_rows = []
    lineitem_rows = []
    quantities = skew.ints(n_orders * 7, 50, stream=21) + 1
    discounts = skew.ints(n_orders * 7, 11, stream=22)  # 0.00 - 0.10
    l_parts = skew.ints(n_orders * 7, n_part, stream=23)
    l_supps = skew.ints(n_orders * 7, n_supplier, stream=24)
    flags = skew.choice(n_orders * 7, RETURN_FLAGS, stream=25)
    modes = skew.choice(n_orders * 7, SHIP_MODES, stream=26)
    li = 0
    for o in range(n_orders):
        order_date = int(o_dates[o])
        line_count = rng.randrange(1, 8)
        total = 0.0
        for line_no in range(1, line_count + 1):
            quantity = float(quantities[li])
            price = round(quantity * (900 + int(l_parts[li]) % 1000 / 10.0), 2)
            discount = int(discounts[li]) / 100.0
            ship_date = min(order_date + rng.randrange(1, 122), END_DATE)
            commit_date = min(order_date + rng.randrange(30, 91), END_DATE)
            receipt_date = min(ship_date + rng.randrange(1, 31), END_DATE)
            status = "F" if ship_date < END_DATE - 400 else "O"
            lineitem_rows.append(
                (
                    o,
                    int(l_parts[li]),
                    int(l_supps[li]),
                    line_no,
                    quantity,
                    price,
                    discount,
                    round(rng.uniform(0.0, 0.08), 2),
                    flags[li],
                    status,
                    ship_date,
                    commit_date,
                    receipt_date,
                    modes[li],
                )
            )
            total += price
            li += 1
        order_rows.append(
            (
                o,
                int(o_custs[o]),
                rng.choice(["F", "O", "P"]),
                round(total, 2),
                order_date,
                o_prios[o],
                rng.randrange(0, 2),
            )
        )
    db.load_rows("orders", order_rows)
    db.load_rows("lineitem", lineitem_rows)

    if cfg.build_indexes:
        for index_name, table, column, clustered in TPCD_INDEXES:
            db.create_index(index_name, table, column, clustered=clustered)

    _apply_catalog_profile(db, cfg)
    return cfg


def _apply_catalog_profile(db: Database, cfg: TpcdConfig) -> None:
    """ANALYZE under the requested statistics-quality profile."""
    if cfg.catalog is CatalogProfile.FRESH:
        db.analyze(histogram_kind=HistogramKind.MAXDIFF, num_buckets=32)
        return
    db.analyze(histogram_kind=HistogramKind.EQUI_WIDTH, num_buckets=8)
    if cfg.catalog is CatalogProfile.STALE:
        # The fact tables grew since the last ANALYZE: counts are off by
        # ``stale_row_factor`` and the update-activity flag is set (which
        # bumps every inaccuracy potential one level).  Histograms stay —
        # they are merely out of date, not absent.
        for table in ("lineitem", "orders", "customer"):
            stats = db.catalog.stats_for(table)
            stats = stats.scaled_rows(cfg.stale_factor_for(table))
            stats = stats.mark_updated()
            db.catalog.set_stats(table, stats)
