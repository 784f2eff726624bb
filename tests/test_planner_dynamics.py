"""The planner solves the problem the closed loop simulates, bit for bit.

planner._row_quantities gives the solver its infection flow, I-drift and
flow cost; they must be the dynamics' own numbers (epidemic._rhs) and
the cost must be the lockdown loss plus the death flow valued at
PlannerParams.death_price, with no rounding apart. Nodes above the
diagonal S + I = 1 are solver nodes too, so the checked points include
some.
"""

import itertools

import numpy as np
import pytest

from epiethics.epidemic import PlannerParams, _lockdown_loss, _rhs
from epiethics.planner import _row_quantities

L_BAR = PlannerParams().L_bar
LEVELS = (0.0, 0.3, L_BAR)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("tau", [0, 1])
def test_row_quantities_and_flow_cost_are_the_dynamics(tau):
    params = PlannerParams(tau=tau, chi=3.0)
    for S, I, L in itertools.product(LEVELS, repeat=3):
        dS, dI, _, dD = _rhs(S, I, L, params)
        flow, f_I, cost = _row_quantities(S, I, L, params)
        assert bits(flow) == bits(-dS)
        assert bits(f_I) == bits(dI)
        want = _lockdown_loss(S, I, L, params) + dD * params.death_price
        assert bits(cost) == bits(want)


def test_row_quantities_on_arrays_match_pointwise():
    # The solver calls it on a node column against a control axis; each
    # entry must equal the scalar evaluation.
    params = PlannerParams(chi=3.0)
    I = np.array(LEVELS)[:, None]
    L = np.array(LEVELS)
    flow, f_I, cost = _row_quantities(0.3, I, L, params)
    for j, k in itertools.product(range(len(LEVELS)), repeat=2):
        one = _row_quantities(0.3, LEVELS[j], LEVELS[k], params)
        assert [bits(a) for a in one] == [
            bits(flow[j, k]), bits(f_I[j, k]), bits(cost[j, k])]
