"""Optimizer-time calibration (paper section 2.4).

Re-optimization is only worthwhile when the remaining query time dwarfs the
time the optimizer itself will take.  The paper observes that optimization
time depends on the number of joins, is worst for star-join queries, and is
"usually rather stable for a given optimizer and database system", so it can
be calibrated once and looked up later as ``T_opt,estimated``.

We model optimization time as ``unit * n * 2**n`` cost units for ``n``
relations — the number of subplans a System-R DP enumerator touches — with a
configurable ``unit``.  :func:`calibrate_unit` reproduces the paper's
procedure: time real optimizer runs on star-join queries of increasing size
and fit ``unit`` by least squares (converted through
``cost_units_per_second``).  The deterministic default keeps experiments
reproducible; the calibration path is exercised by tests and examples.

``n * 2**n`` counts sub-plans *enumerated*.  The enumerator's cost bound
(``dp.py``) changes how many of them are annotated, not how many are
generated, so ``T_opt,estimated``, Equation 1 and every simulated cost are
what they were when every candidate was costed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigError

#: Default cost units charged per enumerated DP subplan.
DEFAULT_UNIT = 0.5


@dataclass(frozen=True)
class OptimizerCalibration:
    """A calibrated model of optimization time."""

    unit: float = DEFAULT_UNIT

    def __post_init__(self) -> None:
        if self.unit <= 0:
            raise ConfigError(f"calibration unit must be positive, got {self.unit}")

    def subplan_count(self, relation_count: int) -> float:
        """Approximate subplans enumerated for an n-relation (star) query."""
        n = max(1, relation_count)
        return n * (2.0 ** n)

    def estimated_units(self, relation_count: int) -> float:
        """``T_opt,estimated`` in cost units for a query of this size."""
        return self.unit * self.subplan_count(relation_count)


def measure_star_join_times(
    optimize,
    relation_counts: Sequence[int] = (2, 3, 4, 5),
    repetitions: int = 3,
) -> list[tuple[int, float]]:
    """Time ``optimize(n)`` for star-join queries of each size.

    This is the paper's calibration procedure made executable: ``optimize``
    must accept a relation count and run one optimization of a star-join
    query of that size (the worst case for a System-R enumerator).  The
    median of ``repetitions`` wall-clock timings is recorded per size;
    feed the result to :func:`calibrate_unit`.
    """
    import statistics
    import time

    measurements: list[tuple[int, float]] = []
    for n in relation_counts:
        samples = []
        for __ in range(max(1, repetitions)):
            start = time.perf_counter()
            optimize(n)
            samples.append(time.perf_counter() - start)
        measurements.append((n, statistics.median(samples)))
    return measurements


def calibrate_unit(
    measurements: Sequence[tuple[int, float]],
    cost_units_per_second: float,
) -> OptimizerCalibration:
    """Fit the per-subplan unit from ``(relation_count, seconds)`` samples.

    This is the paper's star-join calibration: run the optimizer on star
    queries of each size, measure wall time, and derive a stable estimate.
    A least-squares fit through the origin is used (optimization time is
    proportional to subplans enumerated).
    """
    if not measurements:
        raise ConfigError("calibration requires at least one measurement")
    probe = OptimizerCalibration()
    numerator = 0.0
    denominator = 0.0
    for relation_count, seconds in measurements:
        if relation_count <= 0 or seconds < 0:
            raise ConfigError(
                f"invalid calibration sample ({relation_count}, {seconds})"
            )
        x = probe.subplan_count(relation_count)
        y = seconds * cost_units_per_second
        numerator += x * y
        denominator += x * x
    if denominator <= 0 or numerator <= 0:
        return OptimizerCalibration()
    return OptimizerCalibration(unit=numerator / denominator)
