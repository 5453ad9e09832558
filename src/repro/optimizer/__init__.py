"""Query optimizer: cost model, access paths, DP join enumeration, calibration."""

from .annotate import PlanAnnotator
from .calibration import OptimizerCalibration, calibrate_unit, measure_star_join_times
from .cost_model import CostModel, OperatorCost, pages_for
from .optimizer import Optimizer

__all__ = [
    "CostModel",
    "OperatorCost",
    "Optimizer",
    "OptimizerCalibration",
    "PlanAnnotator",
    "calibrate_unit",
    "measure_star_join_times",
    "pages_for",
]
