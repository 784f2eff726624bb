"""chi reaches the planner only through the one death price.

PlannerParams.death_price, cost_per_death + chi, is the value of one
death everywhere the planner prices deaths: the flow cost, the S = 0
edge, the solve and the closed loop's value. So splitting a
price of 20 into 15 + 5 must change no bit of any result.
"""

from dataclasses import fields

import numpy as np

from epiethics.epidemic import EpidemicState, PlannerParams
from epiethics.planner import (GridSpec, _row_quantities,
                               boundary_value_s_zero, simulate_optimal,
                               solve_value_function)

GRID = GridSpec(n_S=40, n_I=40, n_L=11)
SPLIT = PlannerParams(cost_per_death=15.0, chi=5.0)
WHOLE = PlannerParams(cost_per_death=20.0, chi=0.0)
START = EpidemicState(S=0.98, I=0.02)
HORIZON, DT = 20.0, 1.0 / 365.0


def test_derived_constants_are_not_fields():
    names = {f.name for f in fields(PlannerParams)}
    assert not names & {"death_price", "discount_rate"}
    assert SPLIT.death_price == WHOLE.death_price == 20.0
    assert SPLIT.discount_rate == SPLIT.r + SPLIT.nu
    assert SPLIT != WHOLE


def test_chi_enters_only_through_the_death_price():
    I = np.linspace(0.0, 1.0, 41)
    assert np.array_equal(boundary_value_s_zero(I, SPLIT),
                          boundary_value_s_zero(I, WHOLE))
    for S, I0, L in ((0.98, 0.02, 0.0), (0.5, 0.3, 0.35), (0.1, 0.9, 0.7)):
        assert (_row_quantities(S, I0, L, SPLIT)[2]
                == _row_quantities(S, I0, L, WHOLE)[2])

    split_v, split_l = solve_value_function(SPLIT, GRID)
    whole_v, whole_l = solve_value_function(WHOLE, GRID)
    assert np.array_equal(split_v.values, whole_v.values)
    assert np.array_equal(split_l.lockdown, whole_l.lockdown)
    assert split_l.lockdown.max() > 0.0     # the price moves the policy

    split_traj, split_sum = simulate_optimal(split_l, SPLIT, START,
                                             HORIZON, DT)
    whole_traj, whole_sum = simulate_optimal(whole_l, WHOLE, START,
                                             HORIZON, DT)
    assert split_sum == whole_sum
    for name in ("t", "S", "I", "R", "D", "L"):
        assert np.array_equal(getattr(split_traj, name),
                              getattr(whole_traj, name))
    assert split_sum.value == whole_sum.value
