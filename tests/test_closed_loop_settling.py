"""The closed loop's switch to the zero control, against the array loop.

simulate_optimal stops looking its policy up once lockdown is ruled out
for good (planner._bilinear's settled test, epidemic._integrate's
switch). These tests count the lookups the benchmark loop still makes
and check, over random policies with zero regions, that the switch
changes no bit of a trajectory or of its discounted costs.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from epiethics import EpidemicState, PlannerParams, parse_config, planner
from epiethics.epidemic import _integrate, stability_bound
from epiethics.planner import (GridSpec, PolicyField, _bilinear,
                               simulate_optimal, solve_value_function)
from test_rk4_reference import (assert_same_path, reference_policy_control,
                                reference_rk4, same_bits)

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_loop_stops_looking_up_once_settled(monkeypatch):
    # From the benchmark start the cost-20 loop settles at the start of
    # step 126: from there on it takes the zero control instead of the
    # policy lookup, 504 calls instead of 4 per step plus 1 at the end.
    cfg = parse_config((ROOT / "configs" / "benchmark.cfg").read_text(
        encoding="utf-8"))
    _, policy = solve_value_function(cfg.params, cfg.grid, tol=cfg.tol,
                                     keep_values=False)
    calls = []
    real = planner._bilinear

    def counting(*args, **kwargs):
        at, settled = real(*args, **kwargs)

        def lookup(*point):
            calls.append(point)
            return at(*point)
        return lookup, settled

    monkeypatch.setattr(planner, "_bilinear", counting)
    traj, summary = simulate_optimal(policy, cfg.params, cfg.state0(),
                                     cfg.horizon, cfg.dt)
    monkeypatch.undo()
    assert len(traj) == 7301
    assert len(calls) == 504
    ref_path, (gdp, deaths) = reference_rk4(
        cfg.state0(), reference_policy_control(policy, cfg.params),
        cfg.params, cfg.horizon, cfg.dt, discounted=True)
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
