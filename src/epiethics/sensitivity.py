"""From welfare criteria to lockdown policy: the death-cost channel.

A planner values a prevented death at some multiple of annual output.
Here that number is *derived* from a population-ethics criterion: the
cost of one death is the welfare difference between the deceased living
out their remaining years and dying today, converted to output units at
a fixed exchange rate. Each criterion therefore induces its own planner
problem; run_sensitivity solves them all in one stacked row march and
tabulates how the optimal lockdown responds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .epidemic import EpidemicState, PlannerParams
from .ethics import Allocation, WelfareCriterion, criterion_value
# solve_value_function is not called here: perfbench/spans.py swaps this
# module's binding of it for a traced wrapper, so the name stays bound.
from .planner import (GridSpec, PolicyField, simulate_optimal,  # noqa: F401
                      solve_stacked, solve_value_function)

logger = logging.getLogger(__name__)

__all__ = [
    "VictimProfile",
    "SensitivityRow",
    "SensitivityReport",
    "death_cost_from_criterion",
    "run_sensitivity",
]

DEFAULT_REFERENCE = (50.0, 50.0)


@dataclass(frozen=True)
class VictimProfile:
    """Well-being profile of a representative victim.

    lived: level already secured at the time of death; remaining: the
    additional level forgone by dying; exchange_rate converts welfare
    units into annual-output units.
    """

    lived: float = 20.0
    remaining: float = 20.0
    exchange_rate: float = 1.0

    def __post_init__(self):
        for name in ("lived", "remaining", "exchange_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.remaining < 0.0:
            raise ValueError("remaining must be non-negative")
        if self.exchange_rate <= 0.0:
            raise ValueError("exchange_rate must be strictly positive")


def death_cost_from_criterion(crit: WelfareCriterion,
                              reference_pop=DEFAULT_REFERENCE,
                              victim: VictimProfile = VictimProfile()) -> float:
    """Output units lost per death implied by a welfare criterion.

    Computes W(reference_pop + victim at lived+remaining) minus
    W(reference_pop + victim at lived) and converts with the exchange
    rate. The reference population pins down size-sensitive criteria
    (AU, RDCLU); sum-type criteria are unaffected by it.
    """
    ref = tuple(float(v) for v in reference_pop)
    full = Allocation(ref + (victim.lived + victim.remaining,))
    cut = Allocation(ref + (victim.lived,))
    gain = criterion_value(full, crit) - criterion_value(cut, crit)
    cost = victim.exchange_rate * gain
    if cost < 0.0:
        raise ValueError(
            f"criterion {crit.label} values the remaining life negatively "
            f"({cost!r}); cannot be used as a death cost")
    return cost


@dataclass(frozen=True)
class SensitivityRow:
    """One solved planner problem, keyed by the criterion that priced it."""

    label: str
    cost_per_death: float
    peak_L: float = math.nan
    lockdown_years: float = math.nan
    deaths: float = math.nan
    gdp_loss: float = math.nan
    value: float = math.nan
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass(frozen=True)
class SensitivityReport:
    """Baseline plus criterion-derived and fixed-cost scenario rows."""

    baseline: SensitivityRow
    rows: tuple
    ladder: tuple
    policy_diffs: tuple    # (label_a, label_b, sup-norm of policy difference)

    def all_rows(self):
        return (self.baseline,) + self.rows + self.ladder


def _scenario(label: str, params: PlannerParams, policy: PolicyField,
              state0: EpidemicState, horizon: float, dt: float):
    _, summary = simulate_optimal(policy, params, state0, horizon, dt)
    return SensitivityRow(label=label, cost_per_death=params.cost_per_death,
                          peak_L=summary.peak_L,
                          lockdown_years=summary.lockdown_years,
                          deaths=summary.total_deaths,
                          gdp_loss=summary.gdp_loss,
                          value=summary.value)


def _failed(label: str, cost: float, exc: Exception):
    logger.warning("scenario %s failed: %s", label, exc)
    return SensitivityRow(label=label, cost_per_death=cost,
                          error=str(exc)), None


def _priced(params: PlannerParams, cost: float):
    # params at this death cost, or the ValueError rejecting the cost.
    try:
        return replace(params, cost_per_death=cost)
    except ValueError as exc:
        return exc


def run_sensitivity(params: PlannerParams, criteria,
                    reference_pop=DEFAULT_REFERENCE,
                    victim: VictimProfile = VictimProfile(),
                    grid: GridSpec = GridSpec(),
                    state0: Optional[EpidemicState] = None,
                    horizon: float = 20.0, dt: float = 1.0 / 365.0,
                    ladder=(), tol=None,
                    max_iters: int = 500) -> SensitivityReport:
    """Solve the planner problem once per distinct death cost.

    Every cost is derived first; the distinct valid ones, the baseline's
    params.cost_per_death first, are then solved together by one
    solve_stacked call, and the rows are walked in order. The baseline's
    solver failure propagates. Criterion and ladder rows of equal cost
    share one solve and simulation under their own labels. A criterion
    or ladder scenario whose cost cannot be derived or is rejected
    (ValueError), or whose solve fails (SolverConvergenceError,
    SolverNumericalError), is recorded with its error message, and its
    warning logged, when the walk reaches it; any other error
    propagates. The report also carries the pairwise sup-norm distance
    between the criterion policies.
    """
    if state0 is None:
        state0 = EpidemicState(S=0.98, I=0.02)

    # (label, cost, params at that cost or the ValueError ruling it out)
    scenarios = []
    for crit in criteria:
        try:
            cost = death_cost_from_criterion(crit, reference_pop, victim)
        except ValueError as exc:
            scenarios.append((crit.label, math.nan, exc))
        else:
            scenarios.append((crit.label, cost, _priced(params, cost)))
    n_criteria = len(scenarios)
    for cost in ladder:
        cost = float(cost)
        scenarios.append((f"fixed:{cost:g}", cost, _priced(params, cost)))

    costs = list(dict.fromkeys(
        [params.cost_per_death]
        + [cost for _, cost, p in scenarios
           if isinstance(p, PlannerParams)]))
    # Each cost's policy or solver failure; the value fields are dropped.
    solved = {cost: out if isinstance(out, Exception) else out[1]
              for cost, out in zip(costs, solve_stacked(
                  params, grid, costs, tol=tol, max_iters=max_iters))}
    outcomes = {}    # cost -> (row, policy), simulated once per cost

    def outcome(label, cost, priced):
        if isinstance(priced, Exception):
            return _failed(label, cost, priced)
        policy = solved[cost]
        if isinstance(policy, Exception):
            return _failed(label, cost, policy)
        if cost not in outcomes:
            outcomes[cost] = (_scenario(label, priced, policy, state0,
                                        horizon, dt), policy)
        row, policy = outcomes[cost]
        return replace(row, label=label), policy

    if isinstance(solved[params.cost_per_death], Exception):
        raise solved[params.cost_per_death]
    baseline, _ = outcome("benchmark", params.cost_per_death, params)

    walked = [outcome(*scenario) for scenario in scenarios]
    rows = [row for row, _ in walked[:n_criteria]]
    policies = [(row.label, policy) for row, policy in walked[:n_criteria]]

    diffs = []
    for a in range(len(policies)):
        for b in range(a + 1, len(policies)):
            la, pa = policies[a]
            lb, pb = policies[b]
            if pa is None or pb is None:
                diffs.append((la, lb, math.nan))
            else:
                diffs.append((la, lb, float(np.max(np.abs(
                    pa.lockdown - pb.lockdown)))))

    return SensitivityReport(baseline=baseline, rows=tuple(rows),
                             ladder=tuple(row for row, _ in
                                          walked[n_criteria:]),
                             policy_diffs=tuple(diffs))

