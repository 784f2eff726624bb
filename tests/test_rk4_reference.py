"""The float RK4 loop against an array form of the same loop, bit for bit.

The reference below integrates the closed loop on numpy state vectors,
building an EpidemicState for every control call, and interpolates the
policy field on numpy scalars. The package's loop runs on plain floats
in the same operation order, so trajectories and discounted costs must
be equal exactly, not to a tolerance: this equality is what keeps the
CSV artifacts byte-identical across the two forms. Equal means equal bit
patterns, so that -0.0 and +0.0, which the CSV writes differently, are
told apart.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiethics import EpidemicState, PlannerParams
from epiethics.epidemic import integrate_trajectory
from epiethics.planner import (GridSpec, PolicyField, _bilinear,
                               evaluate_policy, simulate_optimal,
                               solve_value_function)

PARAMS = PlannerParams()
START = EpidemicState(S=0.98, I=0.02)
HORIZON = 20.0
DT = 1.0 / 365.0


def reference_rk4(state0, control, params, horizon, dt, discounted=False):
    """Array RK4: returns (t, S, I, R, D, L) and the two discounted costs."""
    rho = params.r + params.nu

    def rhs(y, L):
        S, I = y[0], y[1]
        flow = params.beta_contact * S * I * (1.0 - params.theta * L) ** 2
        exits = params.gamma * I
        dD = (params.phi0 + params.kappa * I) * I
        return np.array([-flow, flow - exits, exits - dD, dD])

    def extra(y, L, t):
        disc = math.exp(-rho * t)
        gdp = params.w * L * (params.tau * (y[0] + y[1]) + (1 - params.tau))
        deaths = (params.phi0 + params.kappa * y[1]) * y[1] \
            * (params.cost_per_death + params.chi)
        return (disc * gdp, disc * deaths)

    def full_rhs(y, t):
        L = float(control(EpidemicState._unchecked(*y[:4], t), t))
        assert 0.0 <= L <= params.L_bar
        out = np.empty(6)
        out[:4] = rhs(y, L)
        out[4:] = extra(y[:4], L, t) if discounted else (0.0, 0.0)
        return out, L

    n_full = int(math.floor(horizon / dt + 1e-9))
    steps = [dt] * n_full
    rem = horizon - n_full * dt
    if rem > 1e-12 * max(1.0, horizon):
        steps.append(rem)
    n = len(steps)
    y = np.zeros(6)
    y[:4] = state0.as_array()
    t = state0.t
    ts, path, Ls = np.empty(n + 1), np.empty((n + 1, 4)), np.empty(n + 1)
    ts[0], path[0] = t, y[:4]
    for k, h in enumerate(steps):
        k1, Ls[k] = full_rhs(y, t)
        k2, _ = full_rhs(y + 0.5 * h * k1, t + 0.5 * h)
        k3, _ = full_rhs(y + 0.5 * h * k2, t + 0.5 * h)
        k4, _ = full_rhs(y + h * k3, t + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.all(y[:4] >= -1e-12) and np.all(y[:4] <= 1.0 + 1e-12)
        y[:4] = np.clip(y[:4], 0.0, 1.0)
        t += h
        ts[k + 1], path[k + 1] = t, y[:4]
    Ls[n] = float(control(EpidemicState._unchecked(*path[-1], ts[-1]),
                          ts[-1]))
    return (ts, path[:, 0], path[:, 1], path[:, 2], path[:, 3], Ls), y[4:]


def reference_policy_control(policy, params):
    # Clamped bilinear interpolation on numpy scalars and linspace nodes.
    s_nodes, i_nodes = policy.grid.s_nodes(), policy.grid.i_nodes()
    values = policy.lockdown
    hS, hI = s_nodes[1] - s_nodes[0], i_nodes[1] - i_nodes[0]

    def control(state, t):
        S = min(max(float(state.S), 0.0), 1.0)
        I = min(max(float(state.I), 0.0), 1.0)
        i = min(int(S / hS), s_nodes.size - 2)
        j = min(int(I / hI), i_nodes.size - 2)
        xs = (S - s_nodes[i]) / hS
        xi = (I - i_nodes[j]) / hI
        L = ((1 - xs) * (1 - xi) * values[i, j]
             + xs * (1 - xi) * values[i + 1, j]
             + (1 - xs) * xi * values[i, j + 1]
             + xs * xi * values[i + 1, j + 1])
        return min(max(float(L), 0.0), params.L_bar)

    return control


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


def assert_same_path(traj, ref_path):
    for name, want in zip("tSIRDL", ref_path):
        assert same_bits(getattr(traj, name), want), name


@pytest.fixture(scope="module")
def policy40():
    _, policy = solve_value_function(PARAMS, GridSpec(n_S=40, n_I=40,
                                                      n_L=11))
    return policy


# From the benchmark start every interpolation cell touches the I = 0
# column, where the policy is 0; the second start spends its first
# months in cells with four nonzero corners.
@pytest.mark.parametrize("start", [START,
                                   EpidemicState(S=0.6, I=0.3, R=0.1)])
def test_solved_policy_simulation_is_bit_identical(policy40, start):
    traj, summary = simulate_optimal(policy40, PARAMS, start, HORIZON, DT)
    ref_path, (gdp, deaths) = reference_rk4(
        start, reference_policy_control(policy40, PARAMS), PARAMS, HORIZON,
        DT, discounted=True)
    assert_same_path(traj, ref_path)
    assert same_bits(summary.gdp_loss, gdp)
    assert same_bits(summary.death_cost, deaths)
    assert summary.peak_L > 0.0        # the policy does lock down


def test_uncontrolled_simulation_is_bit_identical():
    traj, summary = simulate_optimal(None, PARAMS, START, HORIZON, DT)
    ref_path, (gdp, deaths) = reference_rk4(
        START, lambda state, t: 0.0, PARAMS, HORIZON, DT, discounted=True)
    assert_same_path(traj, ref_path)
    assert same_bits(summary.gdp_loss, gdp) and same_bits(gdp, 0.0)
    assert same_bits(summary.death_cost, deaths)


def test_time_dependent_control_is_bit_identical():
    # The control of test_time_dependent_control_is_honoured, over a
    # horizon that ends on a partial step.
    def control(state, t):
        return PARAMS.L_bar if t < 0.5 else 0.0

    traj = integrate_trajectory(START, control, PARAMS, horizon=1.001,
                                dt=DT)
    ref_path, _ = reference_rk4(START, control, PARAMS, 1.001, DT)
    assert_same_path(traj, ref_path)


def handmade_policy():
    # Blocks of 5 S-nodes by 2 I-nodes alternate between zero and
    # nonzero lockdowns, so cells on block edges mix zero and nonzero
    # corners. Every other zero block is -0.0 throughout, where the
    # interpolation gives -0.0; the +0.0 blocks carry scattered -0.0
    # entries, whose cells must be interpolated too.
    i, j = np.indices((40, 40))
    block = i // 5 + j // 2
    L = np.where(block % 2 == 0, 0.0, 0.2 + 0.01 * ((i + j) % 9))
    L[block % 4 == 0] = -0.0
    L[(block % 4 == 2) & (i % 7 == 3) & (j % 3 == 1)] = -0.0
    return PolicyField(GridSpec(n_S=40, n_I=40, n_L=11), L)


@pytest.mark.parametrize("start, negative_zero", [
    (START, False), (EpidemicState(S=0.6, I=0.3, R=0.1), True),
    (EpidemicState(S=0.9, I=0.1), True)])
def test_zero_cell_shortcut_is_bit_identical(start, negative_zero):
    policy = handmade_policy()
    traj, summary = simulate_optimal(policy, PARAMS, start, HORIZON, DT)
    ref_path, (gdp, deaths) = reference_rk4(
        start, reference_policy_control(policy, PARAMS), PARAMS, HORIZON,
        DT, discounted=True)
    assert_same_path(traj, ref_path)
    assert same_bits(summary.gdp_loss, gdp)
    assert same_bits(summary.death_cost, deaths)
    assert same_bits(evaluate_policy(policy, PARAMS, start, HORIZON, DT),
                     gdp + deaths)

    # The path leaves the zero cells and comes back, and it meets the
    # lockdowns +0.0, -0.0 (where the start reaches a -0.0 block) and
    # nonzero ones.
    zero = traj.L == 0.0
    assert np.count_nonzero(zero[1:] != zero[:-1]) >= 2
    assert np.any(zero & ~np.signbit(traj.L)) and np.any(traj.L > 0.0)
    assert np.any(zero & np.signbit(traj.L)) == negative_zero


# Coordinates where a comparison clamp and min/max could part: both
# zeros, the top edge and the float just past it, points outside the
# unit square, and the handmade grid's nodes.
EDGES = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0),
         -0.5, 1.5] + np.linspace(0.0, 1.0, 40).tolist()
COORD = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(EDGES))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(COORD, COORD)
def test_bilinear_clamps_match_min_max_form(S, I):
    # The closed loop's control clamps S, I and the cell index with
    # comparisons; the reference clamps with min and max. Trajectories
    # stay inside the unit square, so this pins the branches outside it.
    policy = handmade_policy()
    got = _bilinear(policy.grid, policy.lockdown, 0.0, PARAMS.L_bar)(S, I)
    want = reference_policy_control(policy, PARAMS)(
        EpidemicState._unchecked(S, I, 0.0, 0.0, 0.0), 0.0)
    assert same_bits(got, want), (S, I, got, want)
