"""Dynamics tests: calibration anchors, conservation, and integrator accuracy.

Independent oracles used here:
  * the implicit final-size relation log(S_inf/S0) = R0 * (S_inf - 1),
    solved by bisection to 1e-14 and compared against a long forward run;
  * step-halving self-convergence of the fixed-step integrator;
  * closed-form behaviour at the disease-free edge (I = 0).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from epiethics import EpidemicState, PlannerParams
from epiethics.epidemic import (
    IntegrationError,
    ParameterError,
    _flows,
    basic_reproduction_number,
    integrate_trajectory,
    stability_bound,
)
from epiethics.planner import (GridSpec, PolicyField, simulate_optimal,
                               solve_value_function)

PARAMS = PlannerParams()
START = EpidemicState(S=0.98, I=0.02)


def constant(L):
    return lambda state, t: L


# ---------------------------------------------------------------------------
# fatality-rate calibration
# ---------------------------------------------------------------------------

def fatality(I):
    # phi(I), the share of exits that die: the death flow per infected.
    return _flows(0.0, I, 0.0, PARAMS)[2] / I


def test_fatality_rate_anchors_exact():
    # Anchors: 1% of the exit rate with no load, 3% at 40% prevalence.
    assert PARAMS.phi0 == 0.01 * PARAMS.gamma
    assert abs(fatality(0.4) - 0.03 * PARAMS.gamma) < 1e-15
    # Affine interpolation puts the midpoint anchor at 2%.
    assert abs(fatality(0.2) - 0.02 * PARAMS.gamma) < 1e-15


def test_fatality_rate_affine_in_prevalence():
    i = np.linspace(0.0, 1.0, 11)
    rates = np.concatenate(([PARAMS.phi0], fatality(i[1:])))
    np.testing.assert_allclose(np.diff(rates, 2), 0.0, atol=1e-15)
    assert np.all(np.diff(rates) > 0.0)


def test_default_fatality_slope_tracks_gamma():
    # phi0 and kappa default to fractions of the chosen exit rate.
    slow = PlannerParams(gamma=10.0, beta_contact=20.0)
    assert slow.phi0 == 0.1
    assert slow.kappa == 0.5


# ---------------------------------------------------------------------------
# vector field
# ---------------------------------------------------------------------------

def test_reproduction_number():
    assert basic_reproduction_number(PARAMS) == PARAMS.beta_contact / PARAMS.gamma
    assert basic_reproduction_number(PlannerParams(beta_contact=18.0)) == 1.0


def test_derivatives_vanish_without_infection():
    state = EpidemicState(S=0.7, I=0.0, R=0.3)
    assert _flows(state.S, state.I, 0.0, PARAMS) == (0.0, 0.0, 0.0)


def test_infection_flow_matches_mass_action():
    flow, exits, dD = _flows(START.S, START.I, 0.0, PARAMS)
    assert flow == PARAMS.beta_contact * 0.98 * 0.02
    assert exits == PARAMS.gamma * 0.02
    assert dD == (PARAMS.phi0 + PARAMS.kappa * 0.02) * 0.02


def test_full_lockdown_quarters_transmission():
    # With contact effectiveness 0.5, L = 1 scales the flow by (1-0.5)^2.
    open_flow = _flows(START.S, START.I, 0.0, PARAMS)[0]
    shut_flow = _flows(START.S, START.I, 1.0, PlannerParams(L_bar=1.0))[0]
    assert shut_flow == 0.25 * open_flow


def test_lockdown_monotonically_suppresses_flow():
    flows = [_flows(START.S, START.I, L, PARAMS)[0]
             for L in np.linspace(0.0, PARAMS.L_bar, 8)]
    assert all(a > b for a, b in zip(flows, flows[1:]))


def test_negative_zero_susceptible_start_steps_to_positive_zero():
    # RK4 on state vectors adds h/6 times the sum of the negated flows to
    # S. From S = -0.0 the four stage flows are zeros of both signs, whose
    # negated sum is -0.0, and -0.0 + -0.0 would keep S at -0.0; the
    # array form's sum of negated zeros is +0.0, which moves S to +0.0.
    start = EpidemicState(S=-0.0, I=0.5, R=0.5)
    traj = integrate_trajectory(start, constant(0.0), PARAMS,
                                horizon=0.05, dt=1 / 365)
    assert np.signbit(traj.S[0])
    assert not np.signbit(traj.S[1:]).any()


# ---------------------------------------------------------------------------
# state and parameter validation
# ---------------------------------------------------------------------------

def test_state_requires_unit_mass():
    with pytest.raises(ValueError):
        EpidemicState(S=0.5, I=0.2)          # sums to 0.7
    with pytest.raises(ValueError):
        EpidemicState(S=0.5, I=-0.1, R=0.6)  # negative compartment


@pytest.mark.parametrize("shares", [
    dict(S=math.nan, I=0.02), dict(S=0.98, I=math.nan),
    dict(S=0.98, I=0.02, R=math.nan), dict(S=0.98, I=0.02, D=math.nan)])
def test_state_rejects_nan(shares):
    with pytest.raises(ValueError, match="outside"):
        EpidemicState(**shares)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_state_rejects_non_finite_time(t):
    # t=nan used to give an all-NaN time column and value=nan, and
    # t=inf a zero discounted death cost beside nonzero deaths.
    with pytest.raises(ValueError, match=f"^t={t!r} must be finite$"):
        EpidemicState(S=0.98, I=0.02, t=t)


def test_state_clips_roundoff():
    state = EpidemicState(S=1.0 + 5e-13, I=-5e-13, R=0.0)
    assert state.S == 1.0 and state.I == 0.0


def test_parameter_validation_messages_name_the_field():
    with pytest.raises(ValueError, match="theta"):
        PlannerParams(theta=1.0)
    with pytest.raises(ValueError, match="gamma"):
        PlannerParams(gamma=0.0)
    with pytest.raises(ValueError, match="tau"):
        PlannerParams(tau=2)
    with pytest.raises(ValueError, match="L_bar"):
        PlannerParams(L_bar=1.2)
    with pytest.raises(ValueError, match="cost_per_death"):
        PlannerParams(cost_per_death=-1.0)


FLOAT_FIELDS = ("beta_contact", "gamma", "phi0", "kappa", "theta", "L_bar",
                "r", "nu", "w", "cost_per_death", "chi")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_parameters_are_rejected(name, bad):
    # w=inf used to pass, and the uncontrolled run then reported
    # gdp_loss = inf * 0 = nan.
    with pytest.raises(ParameterError, match=f"^{name} must be finite$") \
            as info:
        PlannerParams(**{name: bad})
    assert info.value.keys == (name,)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_step_size_bound_enforced():
    bound = stability_bound(PARAMS)
    with pytest.raises(ValueError, match="dt"):
        integrate_trajectory(START, constant(0.0), PARAMS,
                             horizon=1.0, dt=1.5 * bound)
    # At or just below the bound the integrator must accept the step.
    traj = integrate_trajectory(START, constant(0.0), PARAMS,
                                horizon=10 * bound, dt=bound)
    assert len(traj) == 11


@pytest.mark.parametrize("horizon, dt, name", [
    (math.nan, 1 / 365, "horizon"), (1.0, math.nan, "dt"),
    (math.inf, 1 / 365, "horizon")])
def test_non_finite_horizon_or_step_rejected_by_name(horizon, dt, name):
    # NaN fails every comparison, and an infinite horizon has no last
    # sample: both are refused under the argument's name instead of
    # failing later in the step count's int().
    with pytest.raises(ValueError, match=rf"^{name}=(nan|inf) must be"):
        integrate_trajectory(START, constant(0.0), PARAMS,
                             horizon=horizon, dt=dt)


def test_disease_free_state_is_stationary():
    state = EpidemicState(S=0.6, I=0.0, R=0.4)
    traj = integrate_trajectory(state, constant(0.3), PARAMS,
                                horizon=1.0, dt=1 / 365)
    np.testing.assert_array_equal(traj.S, 0.6)
    np.testing.assert_array_equal(traj.I, 0.0)
    np.testing.assert_array_equal(traj.D, 0.0)


def test_final_size_matches_implicit_relation():
    # Oracle: with S0 + I0 = 1 the cumulative epidemic size satisfies
    # log(S_inf / S0) = R0 * (S_inf - 1); deaths do not disturb the
    # relation because nobody re-enters the susceptible pool.
    traj = integrate_trajectory(START, constant(0.0), PARAMS,
                                horizon=3.0, dt=1 / 365)
    r0 = basic_reproduction_number(PARAMS)
    s_inf = brentq(lambda x: math.log(x / 0.98) - r0 * (x - 1.0),
                   1e-9, 1.0 / r0, xtol=1e-14)
    assert traj.I[-1] < 1e-10            # epidemic has actually ended
    assert abs(traj.S[-1] - s_inf) < 1e-4


def test_step_halving_self_convergence():
    coarse = integrate_trajectory(START, constant(0.3), PARAMS,
                                  horizon=2.0, dt=1 / 365)
    fine = integrate_trajectory(START, constant(0.3), PARAMS,
                                horizon=2.0, dt=1 / 730)
    worst = max(np.max(np.abs(getattr(coarse, c) - getattr(fine, c)[::2]))
                for c in "SIRD")
    assert worst < 1e-6


def test_randomized_trajectories_stay_in_bounds():
    # 1000 random starting states and constant controls: no compartment
    # may dip below -1e-12, S never rises, D never falls.
    rng = np.random.default_rng(42)
    dt = 0.9 * stability_bound(PARAMS)
    for _ in range(1000):
        s, i, r, d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        state = EpidemicState(S=s, I=i, R=r, D=d)
        L = rng.uniform(0.0, PARAMS.L_bar)
        traj = integrate_trajectory(state, constant(L), PARAMS,
                                    horizon=0.1, dt=dt)
        for c in "SIRD":
            assert np.min(getattr(traj, c)) >= -1e-12
        assert np.all(np.diff(traj.S) <= 1e-12)
        assert np.all(np.diff(traj.D) >= -1e-12)
        total = traj.S + traj.I + traj.R + traj.D
        assert np.max(np.abs(total - total[0])) < 1e-9


_, SMALL_POLICY = solve_value_function(PARAMS, GridSpec(n_S=30, n_I=30))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(shares=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
       .filter(lambda v: sum(v) > 0.0),
       controlled=st.booleans(), horizon=st.floats(0.01, 1.5),
       dt_fraction=st.floats(0.25, 1.0))
def test_closed_loop_conserves_mass_at_every_step(shares, controlled,
                                                  horizon, dt_fraction):
    # The RK4 closed loop under a solved policy or under no control, from
    # any state, step size and horizon: every sample keeps each
    # compartment in [0, 1] and the four summing to 1 within 1e-12.
    total = sum(shares)
    S, I, R, D = (v / total for v in shares)
    state = EpidemicState(S=S, I=I, R=R, D=D)
    policy = SMALL_POLICY if controlled else None
    traj, _ = simulate_optimal(policy, PARAMS, state, horizon,
                               dt_fraction * stability_bound(PARAMS))
    path = np.stack([traj.S, traj.I, traj.R, traj.D])
    assert np.all((path >= 0.0) & (path <= 1.0))
    assert np.max(np.abs(path.sum(axis=0) - 1.0)) <= 1e-12


def test_time_dependent_control_is_honoured():
    # Lockdown on for the first half of the run only.
    def control(state, t):
        return PARAMS.L_bar if t < 0.5 else 0.0

    traj = integrate_trajectory(START, control, PARAMS,
                                horizon=1.0, dt=1 / 365)
    k = np.searchsorted(traj.t, 0.5)
    assert np.all(traj.L[:k] == PARAMS.L_bar)
    assert traj.L[-1] == 0.0
    # The lockdown phase flattens S relative to the open phase's start.
    open_run = integrate_trajectory(START, constant(0.0), PARAMS,
                                    horizon=1.0, dt=1 / 365)
    assert traj.S[k] > open_run.S[k]


def test_escape_raises_integration_error(monkeypatch):
    # A corrupted vector field that pumps mass into S must be caught by
    # the per-step bounds check rather than silently clipped.
    from epiethics import epidemic as mod

    def bad_flows(S, I, L, params):
        return (-50.0, 0.0, 0.0)

    monkeypatch.setattr(mod, "_flows", bad_flows)
    with pytest.raises(IntegrationError):
        integrate_trajectory(START, constant(0.0), PARAMS,
                             horizon=1.0, dt=1 / 365)


@pytest.mark.parametrize("shares", [(math.nan, 0.02, 0.0, 0.0),
                                    (0.98, 0.02, math.nan, 0.0)])
def test_nan_state_raises_integration_error(shares):
    # A NaN compartment fails every comparison, so the state checks are
    # written to fail on it instead of passing it through to an
    # all-NaN summary. The start is checked before a policy is read.
    start = EpidemicState._unchecked(*shares, 0.0)
    for policy in (None, PolicyField.constant(GridSpec(10, 10, 2), 0.3)):
        with pytest.raises(IntegrationError, match="step 0"):
            simulate_optimal(policy, PlannerParams(), start, 20.0, 1 / 365)


@pytest.mark.parametrize("bad", [-0.01, PARAMS.L_bar + 0.01, math.nan])
def test_integrator_rejects_lockdown_outside_range(bad):
    with pytest.raises(ValueError, match="lockdown"):
        integrate_trajectory(START, constant(bad), PARAMS,
                             horizon=1.0, dt=1 / 365)
    # A control that turns bad inside a step is caught at that stage.
    def late(state, t):
        return bad if t > 0.5 + 0.25 / 365 else 0.0

    with pytest.raises(ValueError, match="lockdown"):
        integrate_trajectory(START, late, PARAMS, horizon=1.0, dt=1 / 365)


def test_final_sample_lockdown_is_checked():
    # 365 steps make 1,460 stage calls; the 1,461st gives the lockdown
    # recorded at the final sample, and is checked like the others.
    calls = []

    def last_bad(state, t):
        calls.append(t)
        return 5.0 if len(calls) == 1461 else 0.0

    with pytest.raises(ValueError, match=r"lockdown L=5\.0 outside"):
        integrate_trajectory(START, last_bad, PARAMS, horizon=1.0,
                             dt=1 / 365)
    assert len(calls) == 1461


def test_control_sees_the_state_and_stage_time():
    seen = []

    def control(state, t):
        seen.append((type(state), state.S + state.I + state.R + state.D, t))
        return 0.0

    dt = stability_bound(PARAMS)
    integrate_trajectory(START, control, PARAMS, horizon=dt, dt=dt)
    # Four RK4 stages, then the lockdown recorded at the final sample.
    assert [kind for kind, _, _ in seen] == [EpidemicState] * 5
    assert [t for _, _, t in seen] == [0.0, 0.5 * dt, 0.5 * dt, dt, dt]
    assert all(abs(total - 1.0) < 1e-12 for _, total, _ in seen)


def test_trajectory_indexing():
    traj = integrate_trajectory(START, constant(0.0), PARAMS,
                                horizon=0.5, dt=1 / 365)
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(0.5, abs=1e-12)
