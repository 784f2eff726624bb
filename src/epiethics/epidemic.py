"""SIR dynamics with a lockdown control.

State is the vector of population fractions (S, I, R, D). A lockdown of
intensity L removes a fraction theta*L of contacts on both sides of a
meeting, so new infections scale with (1 - theta*L)^2. Infected people
exit at rate gamma; of the exit flow, a congestion-dependent share
phi(I) = phi0 + kappa*I dies and the rest recovers. All rates are per
year and all compartments are fractions of the initial population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EpidemicState",
    "IntegrationError",
    "ParameterError",
    "PlannerParams",
    "Trajectory",
    "basic_reproduction_number",
    "fatality_rate",
    "integrate_trajectory",
    "sir_derivatives",
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
    and 3% die when 40% of the population is infected.
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


@dataclass(frozen=True)
class EpidemicState:
    """Population shares (S, I, R, D) at time t.

    Construction clips rounding noise of at most 1e-9 back into [0, 1]
    and rejects anything larger; the four shares must sum to one within
    1e-9.
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
            if v < -1e-9 or v > 1.0 + 1e-9:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
            total += v
            object.__setattr__(self, name, min(max(v, 0.0), 1.0))
        if abs(total - 1.0) > _SUM_ATOL:
            raise ValueError(f"compartments sum to {total!r}, expected 1")

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

    def state_at(self, k: int) -> EpidemicState:
        return EpidemicState(self.S[k], self.I[k], self.R[k], self.D[k],
                             t=self.t[k])


def fatality_rate(I, params: PlannerParams):
    """Death rate phi(I) = phi0 + kappa * I among exits, per year."""
    arr = np.asarray(I, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("infected share outside [0, 1]")
    out = params.phi0 + params.kappa * arr
    return float(out) if out.ndim == 0 else out


def basic_reproduction_number(params: PlannerParams) -> float:
    """R0 = beta / gamma for the uncontrolled epidemic."""
    return params.beta_contact / params.gamma


def stability_bound(params: PlannerParams) -> float:
    """Largest step size the fixed-step integrator accepts."""
    return 0.1 / max(params.beta_contact, params.gamma)


def _check_lockdown(L: float, params: PlannerParams):
    if not 0.0 <= L <= params.L_bar:
        raise ValueError(f"lockdown L={L!r} outside [0, {params.L_bar}]")


def sir_derivatives(state: EpidemicState, L: float, params: PlannerParams):
    """Time derivatives (dS, dI, dR, dD) under lockdown L.

    The flows are paired so the four derivatives cancel to zero up to a
    couple of rounding ulps.
    """
    _check_lockdown(L, params)
    return _rhs((state.S, state.I), L, params)


def _rhs(y, L, params: PlannerParams):
    # The SIR right-hand side at y = (S, I, ...), unchecked. Plain
    # arithmetic, so S, I and L may be floats or broadcastable arrays.
    S, I = y[0], y[1]
    flow = params.beta_contact * S * I * (1.0 - params.theta * L) ** 2
    exits = params.gamma * I
    dD = (params.phi0 + params.kappa * I) * I
    return (-flow, flow - exits, exits - dD, dD)


def _integrate(state0: EpidemicState, control, params: PlannerParams,
               horizon: float, dt: float, extra_rhs=None, n_extra: int = 0):
    """Fixed-step RK4 on the closed-loop system, plus optional quadratures.

    control(S, I, R, D, t) gives the lockdown as a float. It is called at
    every RK4 stage, where its value must lie in [0, L_bar], and once more
    for the lockdown reported at the final sample. extra_rhs(S, I, L, t)
    may return n_extra further derivative components (e.g. discounted
    running costs), integrated alongside the state with the same RK4
    weights. Returns the sampled trajectory and the list of the n_extra
    integrals (None when n_extra is 0).

    The loop runs on plain floats but keeps, value by value, the
    operation order of the equivalent loop over numpy state vectors, so
    its output is bit for bit the same; tests/test_rk4_reference.py keeps
    that array loop and checks the equality.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > stability_bound(params) * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt!r} exceeds stability bound {stability_bound(params)!r}")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")

    n_full = int(math.floor(horizon / dt + 1e-9))
    steps = [dt] * n_full
    rem = horizon - n_full * dt
    if rem > 1e-12 * max(1.0, horizon):
        steps.append(rem)
    n = len(steps)

    S, I, R, D = state0.S, state0.I, state0.R, state0.D
    t = state0.t
    ts = np.empty(n + 1)
    path = np.empty((n + 1, 4))
    Ls = np.empty(n + 1)
    ts[0] = t
    path[0] = (S, I, R, D)
    ts_out, path_out, Ls_out = memoryview(ts), memoryview(path), \
        memoryview(Ls)
    extras = [0.0] * n_extra
    lo, hi = -_STATE_ATOL, 1.0 + _STATE_ATOL

    for k, h in enumerate(steps):
        half = 0.5 * h
        t_mid = t + half
        t_end = t + h
        L1 = control(S, I, R, D, t)
        _check_lockdown(L1, params)
        dS1, dI1, dR1, dD1 = _rhs((S, I), L1, params)
        S2, I2 = S + half * dS1, I + half * dI1
        R2, D2 = R + half * dR1, D + half * dD1
        L2 = control(S2, I2, R2, D2, t_mid)
        _check_lockdown(L2, params)
        dS2, dI2, dR2, dD2 = _rhs((S2, I2), L2, params)
        S3, I3 = S + half * dS2, I + half * dI2
        R3, D3 = R + half * dR2, D + half * dD2
        L3 = control(S3, I3, R3, D3, t_mid)
        _check_lockdown(L3, params)
        dS3, dI3, dR3, dD3 = _rhs((S3, I3), L3, params)
        S4, I4 = S + h * dS3, I + h * dI3
        R4, D4 = R + h * dR3, D + h * dD3
        L4 = control(S4, I4, R4, D4, t_end)
        _check_lockdown(L4, params)
        dS4, dI4, dR4, dD4 = _rhs((S4, I4), L4, params)

        sixth = h / 6.0
        if extra_rhs is not None:
            extras = [q + sixth * (a + 2.0 * b + 2.0 * c + d)
                      for q, a, b, c, d in zip(
                          extras, extra_rhs(S, I, L1, t),
                          extra_rhs(S2, I2, L2, t_mid),
                          extra_rhs(S3, I3, L3, t_mid),
                          extra_rhs(S4, I4, L4, t_end))]
        S = S + sixth * (dS1 + 2.0 * dS2 + 2.0 * dS3 + dS4)
        I = I + sixth * (dI1 + 2.0 * dI2 + 2.0 * dI3 + dI4)
        R = R + sixth * (dR1 + 2.0 * dR2 + 2.0 * dR3 + dR4)
        D = D + sixth * (dD1 + 2.0 * dD2 + 2.0 * dD3 + dD4)
        if (S < lo or S > hi or I < lo or I > hi or R < lo or R > hi
                or D < lo or D > hi):
            raise IntegrationError(
                f"compartment escaped [0, 1] at step {k} (t={t + h:.6f}): "
                f"{[S, I, R, D]}")
        S = min(max(S, 0.0), 1.0)
        I = min(max(I, 0.0), 1.0)
        R = min(max(R, 0.0), 1.0)
        D = min(max(D, 0.0), 1.0)
        t += h
        Ls_out[k] = L1
        ts_out[k + 1] = t
        path_out[k + 1, 0] = S
        path_out[k + 1, 1] = I
        path_out[k + 1, 2] = R
        path_out[k + 1, 3] = D

    # Lockdown that would apply at the final sample.
    Ls_out[n] = control(S, I, R, D, t)

    traj = Trajectory(t=ts, S=path[:, 0], I=path[:, 1], R=path[:, 2],
                      D=path[:, 3], L=Ls)
    return traj, (extras if n_extra else None)


def integrate_trajectory(state0: EpidemicState, control,
                         params: PlannerParams, horizon: float,
                         dt: float) -> Trajectory:
    """Integrate the controlled SIR system with fixed-step RK4.

    control(state, t) receives an EpidemicState (built without
    validation) and the stage time. It is re-evaluated at every RK4
    stage, where it must return a lockdown intensity in [0, L_bar] or a
    ValueError is raised, and once more for the lockdown recorded at the
    final sample. dt must satisfy dt <= 0.1 / max(beta, gamma). A step
    that takes a compartment more than 1e-12 outside [0, 1] raises
    IntegrationError; smaller excursions are clipped. The results equal,
    bit for bit, RK4 on numpy state vectors in the same operation order
    (tests/test_rk4_reference.py).
    """
    def stage_control(S, I, R, D, t):
        return float(control(EpidemicState._unchecked(S, I, R, D, t), t))

    traj, _ = _integrate(state0, stage_control, params, horizon, dt)
    return traj
