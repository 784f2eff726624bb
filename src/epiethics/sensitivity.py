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
from itertools import combinations
from typing import Optional

import numpy as np

from .epidemic import EpidemicState, PlannerParams, _require
from .ethics import (Allocation, WelfareCriterion, _value_error_bound,
                     criterion_value, label_number)
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
# A derived death cost is refused when rounding in the two welfare sums
# may move it by more than this share of itself.
DEATH_COST_RTOL = 1e-8


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
            _require(math.isfinite(getattr(self, name)),
                     f"{name} must be finite", name)
        _require(self.remaining >= 0.0, "remaining must be non-negative",
                 "remaining")
        _require(self.exchange_rate > 0.0,
                 "exchange_rate must be strictly positive", "exchange_rate")


def death_cost_from_criterion(crit: WelfareCriterion,
                              reference_pop=DEFAULT_REFERENCE,
                              victim: VictimProfile = VictimProfile()) -> float:
    """Output units lost per death implied by a welfare criterion.

    Computes W(reference_pop + victim at lived+remaining) minus
    W(reference_pop + victim at lived) and converts with the exchange
    rate. The reference population pins down size-sensitive criteria
    (AU, RDCLU); sum-type criteria are unaffected by it. A cost that is
    not finite, that rounding in the two welfare sums may move by more
    than DEATH_COST_RTOL of the gain, or that is negative raises
    ValueError naming the criterion.
    """
    ref = tuple(float(v) for v in reference_pop)
    full = Allocation(ref + (victim.lived + victim.remaining,))
    cut = Allocation(ref + (victim.lived,))
    # Levels near the float limit overflow the welfare sums; the checks
    # below report that instead of numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        gain = criterion_value(full, crit) - criterion_value(cut, crit)
        slack = _value_error_bound(full, crit) + _value_error_bound(cut, crit)
    cost = victim.exchange_rate * gain
    if not math.isfinite(cost):
        raise ValueError(
            f"criterion {crit.label} gives a death cost that is not finite "
            f"({cost!r}) for this reference population")
    # A victim with nothing left to live loses exactly nothing.
    if victim.remaining > 0.0 and slack > DEATH_COST_RTOL * abs(gain):
        raise ValueError(
            f"criterion {crit.label} loses the death cost to rounding at "
            f"this reference population: the welfare sums may be off by "
            f"{slack:.3g}, more than {DEATH_COST_RTOL:g} of the gain "
            f"{gain!r}")
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


def _sup_distance(a, b, buf) -> float:
    # max |a - b| as np.max(np.abs(a - b)) gives it, bit for bit, with
    # buf, shaped like a, as the one temporary.
    np.subtract(a, b, out=buf)
    return float(np.abs(buf, out=buf).max())


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

    The scenarios are the baseline ("benchmark", at
    params.cost_per_death), then the criteria, then the ladder. Every
    cost is derived first; the distinct valid ones, in first-use order,
    are then solved together by one solve_stacked call that keeps no
    value arrays (keep_values=False), so the sweep holds one n_S x n_I
    field per cost, its policy; the scenarios are then walked once, in
    order, and each closed loop takes the zero control instead of its
    policy lookup once settled (simulate_optimal). The baseline's solver
    failure propagates before the walk. Scenarios of equal cost share
    one solve and simulation under their own labels; one INFO line per
    simulated cost names the scenarios that shared it. A criterion or
    ladder scenario whose cost cannot be derived or is rejected
    (ValueError), or whose solve fails (SolverConvergenceError,
    SolverNumericalError), is recorded with its error message, and its
    warning logged, when the walk reaches it; any other error
    propagates. The report also carries the pairwise sup-norm distance
    between the criterion policies, each computed in one reused buffer,
    so no distance adds a full-size temporary to the policies the sweep
    holds.
    """
    if state0 is None:
        state0 = EpidemicState(S=0.98, I=0.02)

    # (label, cost, params at that cost or the ValueError ruling it out)
    scenarios = [("benchmark", params.cost_per_death, params)]
    for crit in criteria:
        try:
            cost = death_cost_from_criterion(crit, reference_pop, victim)
        except ValueError as exc:
            scenarios.append((crit.label, math.nan, exc))
        else:
            scenarios.append((crit.label, cost, _priced(params, cost)))
    n = len(scenarios)
    for cost in ladder:
        cost = float(cost)
        scenarios.append((f"fixed:{label_number(cost)}", cost,
                          _priced(params, cost)))

    costs = list(dict.fromkeys(cost for _, cost, p in scenarios
                               if isinstance(p, PlannerParams)))
    # Each cost's policy or solver failure; no value array is kept.
    solved = {cost: out if isinstance(out, Exception) else out[1]
              for cost, out in zip(costs, solve_stacked(
                  params, grid, costs, tol=tol, max_iters=max_iters,
                  keep_values=False))}
    if isinstance(solved[params.cost_per_death], Exception):
        raise solved[params.cost_per_death]

    rows, policies = [], []
    simulated = {}    # cost -> (its row, the labels sharing it)
    for label, cost, priced in scenarios:
        policy = priced if isinstance(priced, Exception) else solved[cost]
        if isinstance(policy, Exception):
            logger.warning("scenario %s failed: %s", label, policy)
            rows.append(SensitivityRow(label=label, cost_per_death=cost,
                                       error=str(policy)))
            policies.append(None)
            continue
        if cost not in simulated:
            simulated[cost] = (_scenario(label, priced, policy, state0,
                                         horizon, dt), [])
        row, labels = simulated[cost]
        labels.append(label)
        rows.append(replace(row, label=label))
        policies.append(policy)
    for cost, (_, labels) in simulated.items():
        logger.info("cost %.12g shared by %s", cost, ", ".join(labels))

    buf = np.empty((grid.n_S, grid.n_I))
    diffs = tuple(
        (ra.label, rb.label, math.nan if pa is None or pb is None
         else _sup_distance(pa.lockdown, pb.lockdown, buf))
        for (ra, pa), (rb, pb) in combinations(
            zip(rows[1:n], policies[1:n]), 2))
    return SensitivityReport(baseline=rows[0], rows=tuple(rows[1:n]),
                             ladder=tuple(rows[n:]), policy_diffs=diffs)
