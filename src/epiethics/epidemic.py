"""SIR dynamics with a lockdown control.

State is the vector of population fractions (S, I, R, D). A lockdown of
intensity L removes a fraction theta*L of contacts on both sides of a
meeting, so new infections scale with (1 - theta*L)^2. Infected people
exit at rate gamma; of the exit flow, a congestion-dependent share
phi(I) = phi0 + kappa*I dies and the rest recovers. All rates are per
year and all compartments are fractions of the initial population. The
flows are written once, in _flows, for RK4 here and the grid solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "EpidemicState",
    "IntegrationError",
    "ParameterError",
    "PlannerParams",
    "Trajectory",
    "basic_reproduction_number",
    "integrate_trajectory",
    "stability_bound",
]

# Compartments may stray this far outside [0, 1] before a step is rejected.
_STATE_ATOL = 1e-12
# The four compartments must sum to 1 within this budget at every sample.
_SUM_ATOL = 1e-9


class ParameterError(ValueError):
    """A rejected field value.

    keys names the fields the failed check read, preferred first, so a
    caller can point at whichever of them its input set.
    """

    def __init__(self, msg: str, keys: tuple = ()):
        super().__init__(msg)
        self.keys = keys


def _require(ok: bool, msg: str, *keys: str):
    if not ok:
        raise ParameterError(msg, keys)


class IntegrationError(RuntimeError):
    """A trajectory step left the admissible state region."""


@dataclass(frozen=True)
class PlannerParams:
    """Constants of the epidemic and of the planner's objective.

    Defaults encode the benchmark configuration used throughout the
    tests. beta_contact, gamma and L_bar are modelling choices of this
    package, not values taken from any particular calibration source;
    phi0 and kappa are pinned to gamma so that 1% of exits die at I = 0
    and 3% die when 40% of the population is infected. The derived
    discount_rate (r + nu) and death_price (cost_per_death + chi) are
    properties, so the config schema, equality and replace() skip them.
    """

    beta_contact: float = 36.0   # infectious contacts per infected per year
    gamma: float = 18.0          # exit rate from infection, per year
    phi0: float = None           # baseline death rate; default 0.01 * gamma
    kappa: float = None          # congestion slope; default 0.05 * gamma
    theta: float = 0.5           # lockdown effectiveness, in (0, 1)
    L_bar: float = 0.7           # maximum lockdown fraction, in (0, 1]
    tau: int = 1                 # 1: recovered are testable and exempt; 0: not
    r: float = 0.05              # pure discount rate, per year
    nu: float = 1.0 / 1.5        # vaccine/cure arrival hazard, per year
    w: float = 1.0               # output per worker per year
    cost_per_death: float = 20.0  # output units lost per death
    chi: float = 0.0             # extra per-death penalty, output units

    def __post_init__(self):
        if self.phi0 is None:
            object.__setattr__(self, "phi0", 0.01 * self.gamma)
        if self.kappa is None:
            object.__setattr__(self, "kappa", 0.05 * self.gamma)
        for f in fields(self):
            if f.type == "float":
                _require(math.isfinite(getattr(self, f.name)),
                         f"{f.name} must be finite", f.name)
        for name in ("beta_contact", "gamma", "r", "nu", "w"):
            _require(getattr(self, name) > 0.0,
                     f"{name} must be strictly positive", name)
        _require(0.0 < self.phi0 <= self.gamma,
                 "phi0 must lie in (0, gamma]", "phi0", "gamma")
        _require(self.kappa >= 0.0, "kappa must be non-negative", "kappa")
        _require(self.phi0 + self.kappa <= self.gamma,
                 "phi0 + kappa must not exceed gamma",
                 "phi0", "kappa", "gamma")
        _require(0.0 < self.theta < 1.0, "theta must lie in (0, 1)", "theta")
        _require(0.0 < self.L_bar <= 1.0, "L_bar must lie in (0, 1]", "L_bar")
        _require(self.tau in (0, 1), "tau must be 0 or 1", "tau")
        _require(self.cost_per_death >= 0.0,
                 "cost_per_death must be non-negative", "cost_per_death")
        _require(self.chi >= 0.0, "chi must be non-negative", "chi")
        _require(math.isfinite(self.death_price),
                 "cost_per_death + chi must be finite",
                 "cost_per_death", "chi")

    @property
    def discount_rate(self) -> float:
        """Effective discount r + nu: time preference plus cure hazard."""
        return self.r + self.nu

    @property
    def death_price(self) -> float:
        """Value of one death in output units: cost_per_death + chi."""
        return self.cost_per_death + self.chi


@dataclass(frozen=True)
class EpidemicState:
    """Population shares (S, I, R, D) at time t.

    Construction clips rounding noise of at most 1e-9 back into [0, 1]
    and rejects anything larger, or NaN; the four shares must sum to one
    within 1e-9, and t must be finite.
    """

    S: float
    I: float
    R: float = 0.0
    D: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        total = 0.0
        for name in ("S", "I", "R", "D"):
            v = float(getattr(self, name))
            # Written so that NaN fails the comparison.
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
            total += v
            object.__setattr__(self, name, min(max(v, 0.0), 1.0))
        if not abs(total - 1.0) <= _SUM_ATOL:
            raise ValueError(f"compartments sum to {total!r}, expected 1")
        # Written so that NaN fails the comparison too.
        if not -math.inf < self.t < math.inf:
            raise ValueError(f"t={self.t!r} must be finite")

    @classmethod
    def _unchecked(cls, S, I, R, D, t):
        # Internal fast path for integrator callbacks; skips validation.
        obj = object.__new__(cls)
        object.__setattr__(obj, "S", S)
        object.__setattr__(obj, "I", I)
        object.__setattr__(obj, "R", R)
        object.__setattr__(obj, "D", D)
        object.__setattr__(obj, "t", t)
        return obj

    def as_array(self) -> np.ndarray:
        return np.array([self.S, self.I, self.R, self.D], dtype=float)


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: times, compartments and the lockdown applied."""

    t: np.ndarray
    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    D: np.ndarray
    L: np.ndarray

    def __len__(self):
        return self.t.size


def basic_reproduction_number(params: PlannerParams) -> float:
    """R0 = beta / gamma for the uncontrolled epidemic."""
    return params.beta_contact / params.gamma


def stability_bound(params: PlannerParams) -> float:
    """Largest step size the fixed-step integrator accepts."""
    return 0.1 / max(params.beta_contact, params.gamma)


def _check_steps(horizon: float, dt: float, params: PlannerParams):
    _require(0.0 < horizon < math.inf,
             f"horizon={horizon!r} must be positive and finite", "horizon")
    _require(0.0 < dt < math.inf, f"dt={dt!r} must be positive and finite",
             "dt")
    bound = stability_bound(params)
    _require(dt <= bound * (1.0 + 1e-12),
             f"dt={dt!r} exceeds the stability bound "
             f"0.1/max(beta_contact, gamma) = {bound!r}",
             "dt", "beta_contact", "gamma")


def _check_lockdown(L: float, params: PlannerParams):
    if not 0.0 <= L <= params.L_bar:
        raise ValueError(f"lockdown L={L!r} outside [0, {params.L_bar}]")


def _flows(S, I, L, params: PlannerParams):
    # The three SIR flows, unchecked, each written only here: infections
    # beta*S*I*(1 - theta*L)^2, exits gamma*I and deaths phi(I)*I with
    # phi(I) = phi0 + kappa*I. Floats or broadcastable arrays; the RK4
    # loop and the planner's grid solver both read it.
    flow = params.beta_contact * S * I * (1.0 - params.theta * L) ** 2
    exits = params.gamma * I
    return flow, exits, (params.phi0 + params.kappa * I) * I


def _lockdown_loss(S, I, L, params: PlannerParams):
    # Output lost per year under lockdown L: w*L on the locked-down share,
    # S + I if the recovered are testable and exempt (tau = 1), the whole
    # unit population otherwise. Floats or broadcastable arrays; the
    # planner's flow cost and the closed loop's discounted cost share it.
    return params.w * L * (params.tau * (S + I) + (1 - params.tau))


def _no_lockdown(S, I, R, D, t):
    # The zero control, in _integrate's control signature.
    return 0.0


def _integrate(state0: EpidemicState, control, params: PlannerParams,
               horizon: float, dt: float, settled=None):
    """Fixed-step RK4 on the closed-loop system, with its discounted costs.

    control(S, I, R, D, t) gives the lockdown as a float. It is called at
    every RK4 stage and once more for the lockdown reported at the final
    sample, unless settled stops it (below). Every value must lie in
    [0, L_bar], unchecked here:
    integrate_trajectory checks a caller's control and simulate_optimal
    clamps its own. A start state with a compartment more than 1e-12
    outside [0, 1], or NaN, raises IntegrationError before the first
    control call, as does a step that takes one there; smaller
    excursions of a step are clipped.

    The loop also integrates the two discounted flow costs with the same
    RK4 weights: exp(-(r+nu)t) times _lockdown_loss, and exp(-(r+nu)t)
    times the death flow dD of _flows times params.death_price. The
    discount factor is evaluated once per distinct stage time: the
    mid-step value serves stages 2 and 3, and the end-of-step value is
    the next step's start. Returns the sampled trajectory and
    (gdp_loss, death_cost).

    A step whose four stage lockdowns are all +-0.0 adds no output-loss
    terms, and that is exact: w is finite, so each term is +-0.0 (or
    NaN at a non-finite stage state, which fails the step's range check
    anyway), and gdp_loss + +-0.0 == gdp_loss bit for bit, as gdp_loss
    starts at +0.0 and never falls below it. Closed loops lock down on
    few of their steps: the benchmark sweep's six start 0 to 206 of
    their 7,300 steps locked down.

    settled(S, I), if given, is the caller's grid test: for S, I >= 0 it
    may hold only when control returns +0.0 at every point of
    [0, S] x [0, I], -0.0 coordinates included, as planner._zero_below
    does for simulate_optimal's control. It is tested at each step start
    with S >= 0, I >= 0 and fl(beta*S) < gamma until it first holds;
    from that step on, the zero control (+0.0) stands in for control,
    which is not called again. The switch is exact, because every later
    stage point and step end lies in [0, S] x [0, I]. By induction: at
    such a point (S', I') under L = +0.0, the infection flow of _flows,
    fl(fl(beta*S')*I'), lies in [0, fl(gamma*I')], the exits, as
    fl(beta*S') <= fl(beta*S) < gamma and rounding is monotone. So the
    S-slope -flow and the I-slope flow - exits are <= 0, and each stage
    point and step end adds to the step start a non-negative multiple of
    a sum of such slopes: S' and I' do not rise. The step bound
    h*max(beta, gamma) <= 0.1 caps what they lose at about a tenth of S
    and of I, so neither falls below 0, and the clip to [0, 1] keeps
    both in [0, S] x [0, I].

    The loop runs on plain floats but keeps, value by value, the operation
    order of the equivalent loop over numpy state vectors, so its output is
    bit for bit the same; tests/test_rk4_reference.py keeps that array loop
    and checks the equality. Each stage makes one _flows call, and
    S - half * flow is S + half * (-flow) by IEEE 754. The step adds
    sixth * (-f1 - ...) to S, as S - sixth * (f1 + ...) would differ if zero
    flows of both signs met a start at S = -0.0. _check_steps, the one check
    of horizon and dt, refuses either by name unless positive and finite,
    and a dt above stability_bound. Samples go into four 1-D columns, one
    per compartment, which the Trajectory keeps.

    The [0, 1] clips are comparisons: x < 0.0 -> 0.0, x > 1.0 -> 1.0 is
    exactly min(max(x, 0.0), 1.0), as max returns its first argument
    unless the second compares greater, so both keep a -0.0, and the
    step's range check rejects a NaN before the clip.
    """
    _check_steps(horizon, dt, params)
    n_full = int(math.floor(horizon / dt + 1e-9))
    steps = [dt] * n_full
    rem = horizon - n_full * dt
    if rem > 1e-12 * max(1.0, horizon):
        steps.append(rem)
    n = len(steps)

    S, I, R, D = state0.S, state0.I, state0.R, state0.D
    t = state0.t
    ts = np.empty(n + 1)
    cols = np.empty((4, n + 1))
    Ls = np.empty(n + 1)
    ts[0] = t
    cols[:, 0] = (S, I, R, D)
    ts_out, Ls_out = memoryview(ts), memoryview(Ls)
    S_out, I_out, R_out, D_out = (memoryview(c) for c in cols)
    lo, hi = -_STATE_ATOL, 1.0 + _STATE_ATOL
    # The start is checked as every step's end is, before control sees it.
    if not (lo <= S <= hi and lo <= I <= hi and lo <= R <= hi
            and lo <= D <= hi):
        raise IntegrationError(
            f"start state outside [0, 1] at step 0 (t={t:.6f}): "
            f"{[S, I, R, D]}")
    price = params.death_price
    rho = params.discount_rate
    # Looked up once per call, not per stage; still the one home of each.
    flows, loss = _flows, _lockdown_loss
    exp = math.exp
    disc = exp(-rho * t)
    gdp_loss = death_cost = 0.0
    beta, gamma = params.beta_contact, params.gamma

    for k, h in enumerate(steps):
        if (settled is not None and S >= 0.0 and I >= 0.0
                and beta * S < gamma and settled(S, I)):
            control, settled = _no_lockdown, None
        half = 0.5 * h
        t_mid = t + half
        t_end = t + h
        L1 = control(S, I, R, D, t)
        f1, e1, dD1 = flows(S, I, L1, params)
        dI1, dR1 = f1 - e1, e1 - dD1
        S2, I2 = S - half * f1, I + half * dI1
        R2, D2 = R + half * dR1, D + half * dD1
        L2 = control(S2, I2, R2, D2, t_mid)
        f2, e2, dD2 = flows(S2, I2, L2, params)
        dI2, dR2 = f2 - e2, e2 - dD2
        S3, I3 = S - half * f2, I + half * dI2
        R3, D3 = R + half * dR2, D + half * dD2
        L3 = control(S3, I3, R3, D3, t_mid)
        f3, e3, dD3 = flows(S3, I3, L3, params)
        dI3, dR3 = f3 - e3, e3 - dD3
        S4, I4 = S - h * f3, I + h * dI3
        R4, D4 = R + h * dR3, D + h * dD3
        L4 = control(S4, I4, R4, D4, t_end)
        f4, e4, dD4 = flows(S4, I4, L4, params)
        dI4, dR4 = f4 - e4, e4 - dD4

        sixth = h / 6.0
        disc_mid = exp(-rho * t_mid)
        disc_end = exp(-rho * t_end)
        if L1 or L2 or L3 or L4:      # else every term is +-0.0
            gdp_loss = gdp_loss + sixth * (
                disc * loss(S, I, L1, params)
                + 2.0 * (disc_mid * loss(S2, I2, L2, params))
                + 2.0 * (disc_mid * loss(S3, I3, L3, params))
                + disc_end * loss(S4, I4, L4, params))
        death_cost = death_cost + sixth * (
            disc * (dD1 * price) + 2.0 * (disc_mid * (dD2 * price))
            + 2.0 * (disc_mid * (dD3 * price))
            + disc_end * (dD4 * price))
        disc = disc_end
        S = S + sixth * (-f1 - 2.0 * f2 - 2.0 * f3 - f4)
        I = I + sixth * (dI1 + 2.0 * dI2 + 2.0 * dI3 + dI4)
        R = R + sixth * (dR1 + 2.0 * dR2 + 2.0 * dR3 + dR4)
        D = D + sixth * (dD1 + 2.0 * dD2 + 2.0 * dD3 + dD4)
        # Written so that NaN fails the comparisons too.
        if not (lo <= S <= hi and lo <= I <= hi and lo <= R <= hi
                and lo <= D <= hi):
            raise IntegrationError(
                f"compartment escaped [0, 1] at step {k} (t={t + h:.6f}): "
                f"{[S, I, R, D]}")
        # The clip to [0, 1], bit for bit min(max(x, 0.0), 1.0).
        if S < 0.0:
            S = 0.0
        elif S > 1.0:
            S = 1.0
        if I < 0.0:
            I = 0.0
        elif I > 1.0:
            I = 1.0
        if R < 0.0:
            R = 0.0
        elif R > 1.0:
            R = 1.0
        if D < 0.0:
            D = 0.0
        elif D > 1.0:
            D = 1.0
        t += h
        Ls_out[k] = L1
        ts_out[k + 1] = t
        S_out[k + 1] = S
        I_out[k + 1] = I
        R_out[k + 1] = R
        D_out[k + 1] = D

    # Lockdown that would apply at the final sample.
    L_end = control(S, I, R, D, t)
    Ls_out[n] = L_end

    return Trajectory(ts, *cols, Ls), (gdp_loss, death_cost)


def integrate_trajectory(state0: EpidemicState, control,
                         params: PlannerParams, horizon: float,
                         dt: float) -> Trajectory:
    """Integrate the controlled SIR system with fixed-step RK4.

    control(state, t) receives an EpidemicState (built without
    validation) and the stage time. It is re-evaluated at every RK4
    stage and once more for the lockdown recorded at the final sample,
    and must return a lockdown intensity in [0, L_bar] every time or a
    ValueError is raised. dt must satisfy dt <= 0.1 / max(beta, gamma). A step
    that takes a compartment more than 1e-12 outside [0, 1] raises
    IntegrationError; smaller excursions are clipped. The results equal,
    bit for bit, RK4 on numpy state vectors in the same operation order
    (tests/test_rk4_reference.py). This is _integrate, the one RK4 loop,
    with the discounted costs it accumulates discarded.
    """
    def stage_control(S, I, R, D, t):
        L = float(control(EpidemicState._unchecked(S, I, R, D, t), t))
        _check_lockdown(L, params)
        return L

    traj, _ = _integrate(state0, stage_control, params, horizon, dt)
    return traj
