"""Statistics substrate: histograms, sampling, sketches, catalog statistics."""

from .distinct import FlajoletMartin, HybridDistinct
from .histogram import (
    Bucket,
    Histogram,
    HistogramKind,
    build_end_biased,
    build_equi_depth,
    build_equi_width,
    build_histogram,
    build_maxdiff,
    from_sample,
)
from .sampling import Reservoir
from .table_stats import (
    ColumnStats,
    TableStats,
    compute_column_stats,
    compute_table_stats,
    schema_only_stats,
)
from .zipf import ZipfGenerator

__all__ = [
    "Bucket",
    "ColumnStats",
    "FlajoletMartin",
    "HybridDistinct",
    "Histogram",
    "HistogramKind",
    "Reservoir",
    "TableStats",
    "ZipfGenerator",
    "build_end_biased",
    "build_equi_depth",
    "build_equi_width",
    "build_histogram",
    "build_maxdiff",
    "compute_column_stats",
    "compute_table_stats",
    "from_sample",
    "schema_only_stats",
]
