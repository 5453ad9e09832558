"""Re-optimization triggering heuristics (paper section 2.4).

Re-optimization is gated by two cheap tests *before* the optimizer is
re-invoked:

* **Equation 1** — re-optimizing is not worth the trouble unless the query's
  (improved) execution time is much larger than the estimated optimization
  time::

      T_opt,estimated / T_cur_plan,improved > theta1   ->  do NOT re-optimize

  with ``theta1 ~ 0.05``.

* **Equation 2** — there must be reason to believe the current plan is
  sub-optimal: the improved estimate must exceed the optimizer's original
  estimate by a relative margin::

      (T_cur_plan,improved - T_cur_plan,optimizer) / T_cur_plan,optimizer > theta2

  with ``theta2 ~ 0.2``.

If both gates pass, the optimizer is actually re-invoked (paying
``T_opt``), and the new plan is **accepted** only if its total estimated
time — including work already done, optimization and materialisation
overheads — beats the improved estimate for the current plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ReoptimizationParameters


@dataclass(frozen=True)
class TriggerDecision:
    """Outcome of the Equation 1/2 gates."""

    consider: bool
    reason: str
    t_cur_optimizer: float
    t_cur_improved: float
    t_opt_estimated: float


def should_consider_reoptimization(
    t_cur_optimizer: float,
    t_cur_improved: float,
    t_opt_estimated: float,
    params: ReoptimizationParameters,
) -> TriggerDecision:
    """Apply Equations 1 and 2; ``consider=True`` means invoke the optimizer."""

    def decision(consider: bool, reason: str) -> TriggerDecision:
        return TriggerDecision(
            consider=consider,
            reason=reason,
            t_cur_optimizer=t_cur_optimizer,
            t_cur_improved=t_cur_improved,
            t_opt_estimated=t_opt_estimated,
        )

    if t_cur_improved <= 0:
        return decision(False, "no remaining work to re-optimize")
    # Equation 1: optimization time must be negligible vs. query time.
    if t_opt_estimated / t_cur_improved > params.theta1:
        return decision(
            False,
            f"equation 1: T_opt/T_improved = "
            f"{t_opt_estimated / t_cur_improved:.3f} > theta1 = {params.theta1}",
        )
    # Equation 2: the plan must look sufficiently sub-optimal.
    if t_cur_optimizer <= 0:
        return decision(False, "optimizer estimate is zero")
    drift = (t_cur_improved - t_cur_optimizer) / t_cur_optimizer
    if drift <= params.theta2:
        return decision(
            False,
            f"equation 2: relative drift {drift:.3f} <= theta2 = "
            f"{params.theta2:.3f}",
        )
    return decision(
        True,
        f"gates passed: drift {drift:.3f} > theta2 = {params.theta2:.3f}"
        f", T_opt/T_improved {t_opt_estimated / t_cur_improved:.3f} <= theta1",
    )


def accept_new_plan(t_new_total: float, t_cur_improved: float) -> bool:
    """Final acceptance test after the optimizer produced a new plan."""
    return t_new_total < t_cur_improved
