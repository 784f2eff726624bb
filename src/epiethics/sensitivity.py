"""From welfare criteria to lockdown policy: the death-cost channel.

A planner values a prevented death at some multiple of annual output.
Here that number is *derived* from a population-ethics criterion: the
cost of one death is the welfare difference between the deceased living
out their remaining years and dying today, converted to output units at
a fixed exchange rate. Each criterion therefore induces its own planner
problem; run_sensitivity solves them all and tabulates how the optimal
lockdown responds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .epidemic import EpidemicState, PlannerParams
from .ethics import Allocation, WelfareCriterion, criterion_value
from .planner import (GridSpec, PolicyField, SolverConvergenceError,
                      SolverNumericalError, simulate_optimal,
                      solve_value_function)

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


def _scenario(label: str, params: PlannerParams, grid: GridSpec,
              state0: EpidemicState, horizon: float, dt: float,
              tol, max_iters: int):
    _, policy = solve_value_function(params, grid, tol=tol,
                                     max_iters=max_iters)
    _, summary = simulate_optimal(policy, params, state0, horizon, dt)
    row = SensitivityRow(label=label, cost_per_death=params.cost_per_death,
                         peak_L=summary.peak_L,
                         lockdown_years=summary.lockdown_years,
                         deaths=summary.total_deaths,
                         gdp_loss=summary.gdp_loss,
                         value=summary.value)
    return row, policy


def _failed(label: str, cost: float, exc: Exception):
    logger.warning("scenario %s failed: %s", label, exc)
    return SensitivityRow(label=label, cost_per_death=cost,
                          error=str(exc)), None


def _priced_scenario(label: str, cost: float, params: PlannerParams,
                     solved: dict, *args):
    # A cost the params reject or a failed solve becomes an error row;
    # any other error is a fault and propagates. `solved` maps each cost
    # already tried to its (row, policy) or its solver failure, so rows
    # of equal cost share one solve and keep their own labels.
    try:
        priced = replace(params, cost_per_death=cost)
    except ValueError as exc:
        return _failed(label, cost, exc)
    if cost not in solved:
        try:
            solved[cost] = _scenario(label, priced, *args)
        except (SolverConvergenceError, SolverNumericalError) as exc:
            solved[cost] = exc
    outcome = solved[cost]
    if isinstance(outcome, Exception):
        return _failed(label, cost, outcome)
    row, policy = outcome
    return replace(row, label=label), policy


def run_sensitivity(params: PlannerParams, criteria,
                    reference_pop=DEFAULT_REFERENCE,
                    victim: VictimProfile = VictimProfile(),
                    grid: GridSpec = GridSpec(),
                    state0: Optional[EpidemicState] = None,
                    horizon: float = 20.0, dt: float = 1.0 / 365.0,
                    ladder=(), tol=None,
                    max_iters: int = 500) -> SensitivityReport:
    """Solve the planner problem once per distinct death cost.

    The baseline row uses params.cost_per_death as given, and its
    failures propagate. Criterion and ladder rows whose cost equals an
    earlier row's reuse that row's solve, or its solver failure, under
    their own labels. A criterion or ladder scenario whose cost cannot
    be derived or is rejected (ValueError), or whose solve fails
    (SolverConvergenceError, SolverNumericalError), is recorded with its
    error message and the sweep continues; any other error propagates.
    The report also carries the pairwise sup-norm distance between the
    criterion policies.
    """
    if state0 is None:
        state0 = EpidemicState(S=0.98, I=0.02)

    args = (grid, state0, horizon, dt, tol, max_iters)
    baseline, policy = _scenario("benchmark", params, *args)
    solved = {params.cost_per_death: (baseline, policy)}

    rows = []
    policies = []
    for crit in criteria:
        label = crit.label
        try:
            cost = death_cost_from_criterion(crit, reference_pop, victim)
        except ValueError as exc:
            row, policy = _failed(label, math.nan, exc)
        else:
            row, policy = _priced_scenario(label, cost, params, solved,
                                           *args)
        rows.append(row)
        policies.append((label, policy))

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

    ladder_rows = []
    for cost in ladder:
        cost = float(cost)
        row, _ = _priced_scenario(f"fixed:{cost:g}", cost, params, solved,
                                  *args)
        ladder_rows.append(row)

    return SensitivityReport(baseline=baseline, rows=tuple(rows),
                             ladder=tuple(ladder_rows),
                             policy_diffs=tuple(diffs))
