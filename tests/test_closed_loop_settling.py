"""The closed loop's switch to the zero control, against the array loop.

simulate_optimal stops looking its policy up once lockdown is ruled out
for good: planner._zero_below tests the grid half, that the policy reads
+0.0 at every point below the state, and epidemic._integrate the
dynamics half, that S and I can only fall, before it switches to the
zero control. These tests count the lookups the benchmark sweep's loops
still make, check the grid half alone over random fields, and check,
over random policies with zero regions, that the switch changes no bit
of a trajectory or of its discounted costs.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiethics import EpidemicState, PlannerParams, parse_config, planner
from epiethics.epidemic import _integrate, stability_bound
from epiethics.planner import (GridSpec, PolicyField, _bilinear, _zero_below,
                               simulate_optimal, solve_stacked)
from epiethics.sensitivity import death_cost_from_criterion
from test_rk4_reference import (assert_same_path, reference_policy_control,
                                reference_rk4, same_bits)

ROOT = Path(__file__).resolve().parents[1]

# The benchmark sweep's distinct costs, in first-use order, and the
# policy lookups each closed loop makes before it settles, against
# 29,201 for a loop that interpolates at every stage. The cost-20 loop
# settles at the start of step 126.
SWEEP_LOOKUPS = {20.0: 504, 6.666666666666664: 296, 18.0: 464, 0.0: 296,
                 10.0: 296, 40.0: 900}


@pytest.fixture(scope="module")
def benchmark_sweep():
    # The costs derived as run_sensitivity derives them, and their
    # policies from one stacked solve.
    cfg = parse_config((ROOT / "configs" / "benchmark.cfg").read_text(
        encoding="utf-8"))
    costs = [cfg.params.cost_per_death]
    costs += [death_cost_from_criterion(crit, cfg.reference_pop, cfg.victim)
              for crit in cfg.criteria]
    costs = list(dict.fromkeys(costs + [float(c) for c in cfg.ladder]))
    solved = solve_stacked(cfg.params, cfg.grid, costs, tol=cfg.tol,
                           keep_values=False)
    return cfg, {cost: policy for cost, (_, policy) in zip(costs, solved)}


@pytest.mark.parametrize("cost", list(SWEEP_LOOKUPS))
def test_benchmark_loop_stops_looking_up_once_settled(benchmark_sweep, cost,
                                                      monkeypatch):
    # From the benchmark start each loop takes the zero control instead
    # of the policy lookup once settled, and still equals the array RK4
    # loop that interpolates at every stage.
    cfg, policies = benchmark_sweep
    assert list(policies) == list(SWEEP_LOOKUPS)
    params = replace(cfg.params, cost_per_death=cost)
    policy = policies[cost]
    calls = []
    real = planner._bilinear

    def counting(*args):
        at = real(*args)

        def lookup(*point):
            calls.append(point)
            return at(*point)
        return lookup

    monkeypatch.setattr(planner, "_bilinear", counting)
    traj, summary = simulate_optimal(policy, params, cfg.state0(),
                                     cfg.horizon, cfg.dt)
    monkeypatch.undo()
    assert len(traj) == 7301
    assert len(calls) == SWEEP_LOOKUPS[cost]
    ref_path, (gdp, deaths) = reference_rk4(
        cfg.state0(), reference_policy_control(policy, params),
        params, cfg.horizon, cfg.dt, discounted=True)
    assert_same_path(traj, ref_path)
    assert same_bits(summary.gdp_loss, gdp)
    assert same_bits(summary.death_cost, deaths)


@st.composite
def settling_case(draw):
    # A policy field with a zero region along the low-I columns and the
    # low-S rows, where solved policies have theirs, over entries that
    # mix +0.0, -0.0 and lockdowns; a start that may sit on a cell edge
    # or carry a -0.0; and the epidemic's beta and gamma.
    n_S, n_I = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    params = PlannerParams(beta_contact=draw(st.floats(5.0, 60.0)),
                           gamma=draw(st.floats(5.0, 40.0)))
    entry = st.one_of(st.floats(0.0, params.L_bar),
                      st.sampled_from([0.0, -0.0, params.L_bar]))
    L = np.array(draw(st.lists(entry, min_size=n_S * n_I,
                               max_size=n_S * n_I))).reshape(n_S, n_I)
    L[:draw(st.integers(0, n_S)), :] = 0.0
    L[:, :draw(st.integers(0, n_I))] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        L[draw(st.integers(0, n_S - 1)), draw(st.integers(0, n_I - 1))] = -0.0
    grid = GridSpec(n_S=n_S, n_I=n_I, n_L=11)
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0]))
    S = draw(st.one_of(coord, st.sampled_from(grid.s_nodes().tolist())))
    I = draw(st.one_of(coord, st.sampled_from(grid.i_nodes().tolist())))
    I = min(I, 1.0 - S)
    return PolicyField(grid, L), params, EpidemicState(S=S, I=I,
                                                       R=1.0 - S - I)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(settling_case(), st.floats(0.25, 1.0))
def test_settled_loop_equals_an_always_interpolating_loop(case, dt_share):
    # simulate_optimal stops the policy lookup once the loop is settled;
    # the same loop interpolating at every stage gives the same bits.
    policy, params, start = case
    dt = dt_share * stability_bound(params)
    horizon = 300 * dt
    traj, summary = simulate_optimal(policy, params, start, horizon, dt)
    always = _bilinear(policy.grid, policy.lockdown, 0.0, params.L_bar)
    ref, (gdp, deaths) = _integrate(start, always, params, horizon, dt)
    for name in "tSIRDL":
        assert same_bits(getattr(traj, name), getattr(ref, name)), name
    assert same_bits(summary.gdp_loss, gdp)
    assert same_bits(summary.death_cost, deaths)


@st.composite
def zero_below_case(draw):
    # settling_case's field with -0.0 blocks laid over it, a point
    # (S, I) >= 0, and points of [0, S] x [0, I], which may sit on nodes
    # or carry a -0.0.
    policy, _, _ = draw(settling_case())
    L = policy.lockdown.copy()
    n_S, n_I = L.shape
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n_S - 2)), draw(st.integers(0, n_I - 2))
        L[i:i + draw(st.integers(2, 4)), j:j + draw(st.integers(2, 4))] = -0.0
    s_nodes = policy.grid.s_nodes().tolist()
    i_nodes = policy.grid.i_nodes().tolist()
    S = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(s_nodes + [-0.0])))
    I = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(i_nodes + [-0.0])))

    def lower(x, nodes):
        return st.one_of(st.floats(0.0, 1.0).map(lambda u: u * x),
                         st.sampled_from([n for n in nodes if n <= x]
                                         + [-0.0, x]))

    points = draw(st.lists(st.tuples(lower(S, s_nodes), lower(I, i_nodes)),
                           min_size=1, max_size=10))
    return PolicyField(policy.grid, L), S, I, points


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(zero_below_case())
def test_zero_below_means_plus_zero_at_every_lower_point(case):
    # Where the grid half of the settle test holds at (S, I), the closed
    # loop's control reads +0.0, sign bit clear, all over [0, S] x [0, I].
    policy, S, I, points = case
    if not _zero_below(policy.grid, policy.lockdown)(S, I):
        return
    at = _bilinear(policy.grid, policy.lockdown, 0.0, PlannerParams().L_bar)
    for point in points:
        assert same_bits(at(*point), 0.0), (S, I, point)
