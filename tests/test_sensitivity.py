"""Death-cost derivation and criterion-sweep tests.

Small grids keep the sweep fast; the full-resolution comparative
statics live in the acceptance tests.
"""

import logging
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epiethics import EpidemicState, PlannerParams
from epiethics.ethics import WelfareCriterion, default_criteria
from epiethics.planner import (GridSpec, SolverConvergenceError,
                               solve_value_function)
from epiethics.sensitivity import (
    DEATH_COST_RTOL,
    DEFAULT_REFERENCE,
    VictimProfile,
    death_cost_from_criterion,
    run_sensitivity,
)

SMALL = GridSpec(n_S=40, n_I=40, n_L=11)
PARAMS = PlannerParams()


# ---------------------------------------------------------------------------
# pricing a death
# ---------------------------------------------------------------------------

def test_sum_criteria_price_the_remaining_life_flat():
    victim = VictimProfile(lived=30.0, remaining=20.0, exchange_rate=1.0)
    for kind in ("CU", "TU"):
        crit = WelfareCriterion(kind)
        assert death_cost_from_criterion(crit, (50.0, 50.0), victim) == 20.0
    clu = WelfareCriterion("CLU", c=1.0)
    assert death_cost_from_criterion(clu, (50.0, 50.0), victim) == 20.0


def test_averaging_criterion_dilutes_by_population():
    victim = VictimProfile(lived=30.0, remaining=20.0, exchange_rate=1.0)
    got = death_cost_from_criterion(WelfareCriterion("AU"), (50.0, 50.0),
                                    victim)
    assert abs(got - 20.0 / 3.0) < 1e-12


def test_rank_discounting_halves_the_worst_off_loss():
    victim = VictimProfile(lived=30.0, remaining=20.0, exchange_rate=1.0)
    rd = WelfareCriterion("RDCLU", c=0.0, rank_discount=0.5)
    # The victim is the worst off in both worlds: rank-1 weight 0.5.
    assert death_cost_from_criterion(rd, (50.0, 50.0), victim) == 10.0


def test_exchange_rate_scales_linearly():
    victim = VictimProfile(lived=30.0, remaining=20.0, exchange_rate=2.5)
    assert death_cost_from_criterion(WelfareCriterion("TU"), (50.0, 50.0),
                                     victim) == 50.0


def test_default_reference_population_is_small_and_synthetic():
    assert len(DEFAULT_REFERENCE) >= 1
    got = death_cost_from_criterion(WelfareCriterion("CU"))
    assert got == VictimProfile().remaining * VictimProfile().exchange_rate


def test_an_overflowing_reference_population_is_an_error():
    # Welfare sums over levels near the float limit overflow; the cost
    # is refused by name rather than returned as NaN under a warning.
    huge = (1e308, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for crit in (WelfareCriterion("CU"), WelfareCriterion("TU"),
                     WelfareCriterion("CLU", c=1.0), WelfareCriterion("AU")):
            with pytest.raises(ValueError,
                               match=rf"{re.escape(crit.label)} .*not finite"):
                death_cost_from_criterion(crit, huge)
        rep = run_sensitivity(PARAMS, (WelfareCriterion("CU"),),
                              reference_pop=huge, grid=SMALL)
    (row,) = rep.rows
    assert "not finite" in row.error and math.isnan(row.cost_per_death)


def _exact_cost(crit, reference_pop, victim):
    # death_cost_from_criterion in rational arithmetic, identity u only.
    def welfare(levels):
        gains = [v - Fraction(crit.c) for v in sorted(levels)]
        if crit.kind == "RDCLU":
            gains = [Fraction(crit.rank_discount) ** r * g
                     for r, g in enumerate(gains, start=1)]
        return sum(gains) / len(gains) if crit.kind == "AU" else sum(gains)

    ref = [Fraction(v) for v in reference_pop]
    lived = Fraction(victim.lived)
    return Fraction(victim.exchange_rate) * (
        welfare(ref + [lived + Fraction(victim.remaining)])
        - welfare(ref + [lived]))


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def identity_criteria(draw):
    kind = draw(st.sampled_from(("CU", "TU", "CLU", "AU", "RDCLU")))
    c = draw(_finite(0.0, 1e3)) if kind in ("CLU", "RDCLU") else 0.0
    rd = draw(_finite(0.01, 0.99)) if kind == "RDCLU" else 0.0
    return WelfareCriterion(kind, c=c, rank_discount=rd)


LEVELS = st.one_of(_finite(-1e3, 1e3), _finite(-1e308, 1e308),
                   st.sampled_from((50.0, 1e6, 1e15, 1e16, 1e17, -1e17,
                                    1e300, 1e308)))
RD = WelfareCriterion("RDCLU", c=1.0, rank_discount=0.9)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(crit=identity_criteria(),
       reference_pop=st.lists(LEVELS, min_size=1, max_size=8).map(tuple),
       victim=st.builds(VictimProfile, LEVELS, _finite(0.0, 1e3),
                        _finite(0.01, 100.0)))
@example(crit=WelfareCriterion("AU"), reference_pop=(1e15, 1e15),
         victim=VictimProfile())
@example(crit=RD, reference_pop=(1e16, 1e16), victim=VictimProfile())
@example(crit=WelfareCriterion("CU"), reference_pop=(1e17, 1e17),
         victim=VictimProfile())
@example(crit=RD, reference_pop=(1e308, 1e308), victim=VictimProfile())
def test_a_derived_death_cost_is_exact_to_its_tolerance_or_refused(
        crit, reference_pop, victim):
    # An accepted cost is within DEATH_COST_RTOL of the exact one, up to
    # the last roundings of the difference and the exchange rate.
    exact = _exact_cost(crit, reference_pop, victim)
    try:
        got = death_cost_from_criterion(crit, reference_pop, victim)
    except ValueError:
        return
    assert abs(Fraction(got) - exact) <= \
        2 * Fraction(DEATH_COST_RTOL) * abs(exact)


def test_a_cost_lost_to_rounding_is_an_error_row():
    # At 1e16 the reference terms drown the victim's gain: AU would give
    # 7 and RDCLU 16 instead of 6.67 and 18.
    rep = run_sensitivity(PARAMS, default_criteria(),
                          reference_pop=(1e16, 1e16), grid=SMALL)
    for row in rep.rows:
        assert "to rounding" in row.error and math.isnan(row.cost_per_death)
    assert rep.baseline.ok


def test_no_remaining_life_costs_exactly_nothing():
    # The two allocations are one, so their difference is exactly 0 at
    # any reference level, however large its rounding bound.
    victim = VictimProfile(lived=30.0, remaining=0.0)
    for crit in default_criteria():
        assert death_cost_from_criterion(crit, (1e16, 1e16), victim) == 0.0


def test_victim_profile_validation():
    with pytest.raises(ValueError, match="remaining"):
        VictimProfile(remaining=-1.0)
    with pytest.raises(ValueError, match="exchange_rate"):
        VictimProfile(exchange_rate=0.0)
    with pytest.raises(ValueError, match="finite"):
        VictimProfile(lived=float("nan"))


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report():
    return run_sensitivity(PARAMS, default_criteria(), grid=SMALL,
                           ladder=(0.0, 10.0, 20.0, 40.0))


def test_report_rows_follow_input_order(report):
    labels = [row.label for row in report.rows]
    assert labels == [crit.label for crit in default_criteria()]
    assert report.baseline.label == "benchmark"
    assert [row.label for row in report.ladder] == [
        "fixed:0", "fixed:10", "fixed:20", "fixed:40"]


def test_distinct_ladder_costs_get_distinct_labels():
    rep = run_sensitivity(PARAMS, (), grid=SMALL,
                          ladder=(1.0000001, 1.0000002, 2.5))
    assert [row.label for row in rep.ladder] == [
        "fixed:1.0000001", "fixed:1.0000002", "fixed:2.5"]


def test_flat_cost_criteria_reproduce_the_baseline(report):
    # CU prices a death exactly like the benchmark config, so its row is
    # the same solve: every reported number must coincide bitwise.
    baseline, cu_row = report.baseline, report.rows[0]
    assert cu_row.cost_per_death == baseline.cost_per_death == 20.0
    for name in ("peak_L", "lockdown_years", "deaths", "gdp_loss", "value"):
        assert getattr(cu_row, name) == getattr(baseline, name)


def test_identical_cost_rows_have_zero_policy_distance(report):
    diffs = {frozenset((a, b)): d for a, b, d in report.policy_diffs}
    assert diffs[frozenset(("CU", "TU"))] == 0.0
    assert diffs[frozenset(("CU", "CLU(c=1)"))] == 0.0
    # The averaging criterion prices deaths lower and locks down less.
    assert diffs[frozenset(("CU", "AU"))] > 0.0


def test_zero_cost_row_never_locks_down(report):
    row = next(r for r in report.ladder if r.cost_per_death == 0.0)
    assert row.peak_L == 0.0
    assert row.lockdown_years == 0.0
    # With no lockdown the deaths match the uncontrolled epidemic: the
    # highest death toll of the whole ladder.
    assert row.deaths == max(r.deaths for r in report.ladder)


def test_ladder_monotonicity(report):
    deaths = [r.deaths for r in report.ladder]
    peaks = [r.peak_L for r in report.ladder]
    assert all(b <= a + 1e-3 for a, b in zip(deaths, deaths[1:]))
    assert all(b >= a - 1e-3 for a, b in zip(peaks, peaks[1:]))


def test_sweep_is_deterministic(report):
    again = run_sensitivity(PARAMS, default_criteria(), grid=SMALL,
                            ladder=(0.0, 10.0, 20.0, 40.0))
    assert again == report


def test_failed_rows_are_recorded_and_skipped(monkeypatch):
    from epiethics import sensitivity as mod

    real = mod.solve_stacked

    def flaky(params, grid, costs, **kw):
        # Every cost but the baseline's fails to converge.
        return [out if cost == PARAMS.cost_per_death else
                SolverConvergenceError("induced failure", residual=1.0, row=1)
                for cost, out in zip(costs, real(params, grid, costs, **kw))]

    monkeypatch.setattr(mod, "solve_stacked", flaky)
    rep = run_sensitivity(PARAMS, (WelfareCriterion("CU"),
                                   WelfareCriterion("AU")), grid=SMALL)
    cu_row, au_row = rep.rows
    assert cu_row.ok and not au_row.ok
    assert "induced failure" in au_row.error
    assert math.isnan(au_row.peak_L)
    # The missing policy propagates as a NaN distance, not a crash.
    assert math.isnan(rep.policy_diffs[0][2])


def test_a_failed_baseline_solve_propagates_before_any_row(monkeypatch,
                                                          caplog):
    from epiethics import sensitivity as mod

    real = mod.solve_stacked

    def flaky(params, grid, costs, **kw):
        # Only the baseline's cost fails to converge.
        return [SolverConvergenceError("induced failure", residual=1.0, row=1)
                if cost == PARAMS.cost_per_death else out
                for cost, out in zip(costs, real(params, grid, costs, **kw))]

    monkeypatch.setattr(mod, "solve_stacked", flaky)
    with caplog.at_level(logging.WARNING, logger="epiethics.sensitivity"), \
            pytest.raises(SolverConvergenceError, match="induced failure"):
        run_sensitivity(PARAMS, (WelfareCriterion("AU"),), grid=SMALL,
                        ladder=(0.0,))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_only_cost_and_solver_failures_become_rows(monkeypatch):
    from epiethics import sensitivity as mod

    real_value = mod.criterion_value
    monkeypatch.setattr(mod, "criterion_value",
                        lambda x, crit: -real_value(x, crit))
    rep = run_sensitivity(PARAMS, (WelfareCriterion("CU"),), grid=SMALL,
                          ladder=(-5.0,))
    # A negative derived cost, and a negative fixed cost the parameters
    # reject, are recorded as error rows.
    (derived,), (fixed,) = rep.rows, rep.ladder
    assert "negatively" in derived.error and math.isnan(derived.cost_per_death)
    assert "cost_per_death" in fixed.error and fixed.cost_per_death == -5.0

    # A ValueError from inside a scenario is a fault, not a row.
    real_simulate = mod.simulate_optimal

    def broken(policy, params, *args):
        if params.cost_per_death != PARAMS.cost_per_death:
            raise ValueError("injected fault")
        return real_simulate(policy, params, *args)

    monkeypatch.setattr(mod, "criterion_value", real_value)
    monkeypatch.setattr(mod, "simulate_optimal", broken)
    with pytest.raises(ValueError, match="injected fault"):
        run_sensitivity(PARAMS, (WelfareCriterion("AU"),), grid=SMALL)


def test_sweep_logs_the_scenarios_sharing_each_cost(caplog):
    caplog.set_level(logging.INFO, logger="epiethics.sensitivity")
    rep = run_sensitivity(PARAMS, default_criteria(), grid=SMALL,
                          ladder=(0.0, 20.0, -5.0))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "epiethics.sensitivity"
             and r.levelno == logging.INFO]
    # One line per simulated cost, in first-use order; the rejected
    # ladder cost has no solve to share and only its warning.
    assert lines == [
        "cost 20 shared by benchmark, CU, TU, CLU(c=1), fixed:20",
        "cost 6.66666666667 shared by AU",
        "cost 18 shared by RDCLU(c=1,rd=0.9)",
        "cost 0 shared by fixed:0",
    ]
    assert not rep.ladder[-1].ok


def test_report_rows_expose_scenario_outcomes(report):
    for row in (report.baseline,) + report.rows:
        assert row.ok
        assert 0.0 <= row.peak_L <= PARAMS.L_bar
        assert 0.0 <= row.deaths < 0.05
        assert row.value > 0.0
    costs = {row.label: row.cost_per_death for row in report.rows}
    assert costs["AU"] < costs["RDCLU(c=1,rd=0.9)"] < costs["CU"]


def test_sweep_solves_each_distinct_cost_once(monkeypatch, report):
    from epiethics import sensitivity as mod

    real = mod.solve_stacked
    solved_costs = []

    def counting(params, grid, costs, **kw):
        solved_costs.extend(costs)
        return real(params, grid, costs, **kw)

    monkeypatch.setattr(mod, "solve_stacked", counting)
    cached = run_sensitivity(PARAMS, default_criteria(), grid=SMALL,
                             ladder=(0.0, 10.0, 20.0, 40.0))
    monkeypatch.undo()
    # Benchmark, CU, TU, CLU(c=1) and fixed:20 all cost 20.
    costs = {row.cost_per_death for row in cached.all_rows()}
    assert len(costs) == 6
    assert sorted(solved_costs) == sorted(costs)
    assert cached == report

    # Without sharing: every row and policy from a solve of its own.
    def alone_scenario(label, cost):
        params = replace(PARAMS, cost_per_death=cost)
        _, policy = solve_value_function(params, SMALL)
        row = mod._scenario(label, params, policy,
                            EpidemicState(S=0.98, I=0.02), 20.0, 1.0 / 365.0)
        return row, policy

    alone = {row.label: alone_scenario(row.label, row.cost_per_death)
             for row in cached.all_rows()}
    assert all(alone[row.label][0] == row for row in cached.all_rows())
    labels = [row.label for row in cached.rows]
    diffs = tuple((a, b, float(np.max(np.abs(alone[a][1].lockdown
                                             - alone[b][1].lockdown))))
                  for i, a in enumerate(labels) for b in labels[i + 1:])
    assert cached.policy_diffs == diffs
