"""Grid solver for the planner's optimal lockdown problem.

The planner chooses a lockdown intensity L(S, I) in [0, L_bar] to
minimize the discounted stream of lockdown output losses plus death
costs, with effective discount r + nu (pure time preference plus the
vaccine arrival hazard). The stationary Bellman equation is discretized
on a rectangular (S, I) grid with first-order upwind differences — the
one-sided difference is taken in the direction the state drifts.

The pointwise minimization over L is exact. Infections scale with
(1 - theta*L)^2, so at each node the discrete Hamiltonian is quadratic
in L on either side of L_c = (1 - sqrt(gamma/(beta*S)))/theta, where the
I-drift, and with it the upwind branch, changes sign. Its minimum over
[0, L_bar] is therefore one of five candidates, each clipped to
[0, L_bar]: 0, L_bar, L_c and the two branch vertices
L = (1 - a/(2*beta*S*I*theta*(D_I - D_S)))/theta, with a the output lost
per unit of lockdown and D_I the upwind I-difference of that branch.
This is the grid form of the first-order condition of Alvarez, Argente
& Lippi (AER: Insights 2021). Ties go to the smaller L. A finite control
set can be given instead; the tests' oracles use one.

S never increases, so each S-row of the discrete system depends only on
itself and on the row below. Rows are solved in ascending S order, each
by policy iteration on its tridiagonal system; this converges to the
same discrete fixed point as global pseudo-time value iteration (which
the tests use as an oracle on small grids) at a small fraction of the
iteration count, which is what makes the default 300x300 grid cheap.

Problems that differ only in the price of a death (a sensitivity sweep)
march through the rows together: the row functions take a leading
scenario axis, and each policy-iteration step solves the rows of all
unconverged scenarios as one block-diagonal tridiagonal system whose
couplings across blocks are exact zeros. A scenario stops iterating at
the step where its own row converges, so it runs exactly the operations
of its own solve and its results are bit for bit the same;
solve_value_function is the one-scenario case of solve_stacked.

Grid nodes with S + I > 1 are retained. They are unreachable from the
physical simplex, but keeping them gives every node near the diagonal a
complete upwind stencil; since S only shrinks, values in that corner
never feed back into reachable states. Where the drift in I points up
at the top grid edge there is no upwind neighbour and the term is
dropped, which keeps the scheme monotone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .epidemic import EpidemicState, PlannerParams, Trajectory, \
    basic_reproduction_number, _check_lockdown, _integrate, _require

__all__ = [
    "GridSpec",
    "PolicyField",
    "ScenarioSummary",
    "SolverConvergenceError",
    "SolverNumericalError",
    "ValueField",
    "bellman_residual",
    "boundary_value_s_zero",
    "evaluate_policy",
    "flow_cost",
    "simulate_optimal",
    "solve_stacked",
    "solve_value_function",
]

logger = logging.getLogger(__name__)

# Lockdown intensities below this threshold count as "no lockdown" when
# measuring durations and end dates.
LOCKDOWN_THRESHOLD = 0.01


class SolverConvergenceError(RuntimeError):
    """Value iteration failed to reach the residual tolerance."""

    def __init__(self, msg, residual=float("nan"), row=None):
        super().__init__(msg)
        self.residual = residual
        self.row = row


class SolverNumericalError(RuntimeError):
    """A non-finite value appeared during the solve."""

    def __init__(self, msg, node=None):
        super().__init__(msg)
        self.node = node


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid over the unit (S, I) square.

    The physical states live in the lower triangle S + I <= 1; nodes
    above the diagonal are kept so that upwind stencils at the diagonal
    are complete. n_L is kept for config compatibility only: the solver
    minimizes over the control exactly, and no solve reads n_L.
    """

    n_S: int = 300
    n_I: int = 300
    n_L: int = 51

    def __post_init__(self):
        _require(self.n_S >= 3 and self.n_I >= 3,
                 "n_S and n_I must be at least 3", "n_S", "n_I")
        _require(self.n_L >= 2, "n_L must be at least 2", "n_L")

    def s_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_S)

    def i_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_I)


def _bilinear(grid: GridSpec, values: np.ndarray):
    """Clamped bilinear interpolation of a grid field, as f(S, I) -> float.

    The field is read in place through a memoryview, which yields plain
    floats: no numpy scalar per call and no copy of the field, only of
    the node coordinates.
    """
    s_nodes = grid.s_nodes().tolist()
    i_nodes = grid.i_nodes().tolist()
    hS = s_nodes[1] - s_nodes[0]
    hI = i_nodes[1] - i_nodes[0]
    i_top = grid.n_S - 2
    j_top = grid.n_I - 2
    field = memoryview(values)

    def at(S, I):
        S = min(max(float(S), 0.0), 1.0)
        I = min(max(float(I), 0.0), 1.0)
        i = min(int(S / hS), i_top)
        j = min(int(I / hI), j_top)
        xs = (S - s_nodes[i]) / hS
        xi = (I - i_nodes[j]) / hI
        return ((1 - xs) * (1 - xi) * field[i, j]
                + xs * (1 - xi) * field[i + 1, j]
                + (1 - xs) * xi * field[i, j + 1]
                + xs * xi * field[i + 1, j + 1])

    return at


@dataclass(frozen=True)
class ValueField:
    """Planner value V on the grid; V >= 0, V(S, 0) = 0 exactly."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_S, self.grid.n_I):
            raise ValueError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite value entries")
        if v.min() < -1e-12:
            raise ValueError(f"negative value entry {v.min()!r}")
        object.__setattr__(self, "values", np.maximum(v, 0.0))

    def at(self, S: float, I: float) -> float:
        """Bilinear interpolation, clamped to the unit square."""
        return self._interpolate(S, I)

    @cached_property
    def _interpolate(self):
        return _bilinear(self.grid, self.values)


@dataclass(frozen=True)
class PolicyField:
    """Optimal lockdown L on the grid; every entry in [0, L_bar]."""

    grid: GridSpec
    lockdown: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.lockdown, dtype=float)
        if v.shape != (self.grid.n_S, self.grid.n_I):
            raise ValueError("lockdown shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite policy entries")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("policy entries outside [0, 1]")
        object.__setattr__(self, "lockdown", v)

    @classmethod
    def constant(cls, grid: GridSpec, L: float) -> "PolicyField":
        return cls(grid, np.full((grid.n_S, grid.n_I), float(L)))

    def at(self, S: float, I: float) -> float:
        """Bilinear interpolation, clamped to the unit square."""
        return self._interpolate(S, I)

    @cached_property
    def _interpolate(self):
        return _bilinear(self.grid, self.lockdown)


def flow_cost(state: EpidemicState, L: float, params: PlannerParams) -> float:
    """Instantaneous planner cost at a state under lockdown L.

    Output lost to lockdown is w*L weighted by the locked-down share
    (S + I if the recovered are testable and exempt, the whole unit
    population otherwise), plus the flow of deaths valued at
    cost_per_death + chi.
    """
    _check_lockdown(L, params)
    gdp, deaths = _flow_cost_terms(state.S, state.I, L, params)
    return float(gdp + deaths)


def _flow_cost_terms(S, I, L, params: PlannerParams, price=None):
    # The two terms of the flow cost, lockdown output loss and death
    # cost, for floats or broadcastable arrays. price, the value of one
    # death, defaults to cost_per_death + chi; the stacked solve passes
    # one per scenario, shaped to broadcast over its leading axis.
    if price is None:
        price = params.cost_per_death + params.chi
    gdp = params.w * L * (params.tau * (S + I) + (1 - params.tau))
    deaths = (params.phi0 + params.kappa * I) * I * price
    return gdp, deaths


def boundary_value_s_zero(I, params: PlannerParams):
    """Closed-form V(0, I): no lockdown, I decays at rate gamma.

    With I(t) = I*exp(-gamma*t) the discounted death cost integrates to
    (cost_per_death + chi) * (phi0*I/(r+nu+gamma) + kappa*I^2/(r+nu+2*gamma)).
    """
    arr = np.asarray(I, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("infected share outside [0, 1]")
    rho = params.r + params.nu
    out = (params.cost_per_death + params.chi) * (
        params.phi0 * arr / (rho + params.gamma)
        + params.kappa * arr ** 2 / (rho + 2.0 * params.gamma))
    return float(out) if out.ndim == 0 else out


def _row_quantities(S, I, L, params: PlannerParams, price=None):
    # Drift and cost pieces at nodes I (any shape) under lockdown L
    # (broadcastable against I). The flow is epidemic._rhs's -dS, written
    # out: taking it from _rhs would negate it twice and compute dR and
    # dD for nothing, about 2% of a solve.
    lock = (1.0 - params.theta * L) ** 2
    flow = params.beta_contact * S * I * lock
    f_I = flow - params.gamma * I
    gdp, deaths = _flow_cost_terms(S, I, L, params, price)
    return flow, f_I, gdp + deaths


def _hamiltonian(flow, f_I, cost, DS, DIp, DIm):
    # Upwind Hamiltonian; DS/DIp/DIm broadcast against the control axis.
    return cost - flow * DS + np.where(f_I > 0.0, f_I * DIp, f_I * DIm)


def _row_candidates(S, I, DS, DIp, DIm, params: PlannerParams):
    # The five candidate controls of the module docstring at every node
    # of one S-row (any leading scenario axes), clipped to [0, L_bar] and
    # sorted, so that an argmin over them breaks ties toward the smaller L.
    theta = params.theta
    L_c = (1.0 - math.sqrt(params.gamma / (params.beta_contact * S))) / theta
    a = params.w * (params.tau * (S + I) + (1 - params.tau))
    scale = 2.0 * params.beta_contact * S * I * theta
    cand = np.empty(DS.shape + (5,))
    cand[..., 0] = 0.0
    cand[..., 1] = params.L_bar
    cand[..., 2] = L_c
    for col, DI in ((3, DIp), (4, DIm)):
        # The branch is a*L + curv*(1 - theta*L)^2/(2*theta) plus terms
        # free of L; its vertex lies above 0 only where curv > a (> 0).
        curv = scale * (DI - DS)
        above = curv > a
        cand[..., col] = np.where(
            above, (1.0 - a / np.where(above, curv, 1.0)) / theta, 0.0)
    np.clip(cand, 0.0, params.L_bar, out=cand)
    cand.sort(axis=-1)
    return cand


def _row_minimize(S, I, v_row, v_prev, hS, hI, params, controls=None,
                  price=None):
    """Minimize the upwind Hamiltonian at every active node of one S-row.

    v_row is the full current row (index 0 pinned); v_prev is the full
    row below. Both may carry leading scenario axes, with price (the
    value of one death per scenario, shaped to broadcast over the node
    and control axes) set accordingly. With controls=None the minimum
    over [0, L_bar] is exact (see _row_candidates); otherwise it is taken
    over the sorted finite set controls. Ties go to the smaller L.
    Returns the minimized Hamiltonian and the minimizing L with its
    drift/cost pieces, each shaped like v_row[..., 1:].
    """
    vj = v_row[..., 1:]
    DS = (vj - v_prev[..., 1:]) / hS
    DIp = np.empty_like(vj)
    DIp[..., :-1] = (v_row[..., 2:] - v_row[..., 1:-1]) / hI
    DIp[..., -1] = 0.0   # no upwind neighbour above the top edge
    DIm = (v_row[..., 1:] - v_row[..., :-1]) / hI

    if controls is None:
        Ls = _row_candidates(S, I, DS, DIp, DIm, params)
    else:
        Ls = np.broadcast_to(controls, DS.shape + controls.shape)
    flow, f_I, cost = _row_quantities(S, I[:, None], Ls, params, price)
    H = _hamiltonian(flow, f_I, cost, DS[..., None], DIp[..., None],
                     DIm[..., None])
    k = H.argmin(axis=-1)             # first minimum = smallest L
    # Flat indices of the minimizers: cheaper than fancy indexing on
    # every axis.
    k += np.arange(0, H.size, H.shape[-1]).reshape(k.shape)
    return (H.ravel()[k], Ls.ravel()[k], flow.ravel()[k], f_I.ravel()[k],
            cost.ravel()[k])


@cache
def _solve_banded():
    # scipy.linalg takes about 0.1 s to import, so it is imported on the
    # first row solve, not by commands that never solve.
    from scipy.linalg import solve_banded
    return solve_banded


def _row_policy_eval(rho, flow_k, fI_k, cost_k, v_prev, hS, hI):
    """Solve the row's tridiagonal system for the fixed per-node policy.

    With leading scenario axes, the rows form one block-diagonal system
    whose couplings across block edges are exact zeros, solved in one
    call. A finite block then equals the block solved alone; a block
    that overflows spreads NaN (0 * inf) into its neighbours.
    """
    a = flow_k / hS
    bp = np.where(fI_k > 0.0, fI_k, 0.0) / hI
    bp[..., -1] = 0.0                 # dropped term at the top edge
    bm = np.where(fI_k < 0.0, -fI_k, 0.0) / hI
    diag = rho + a + bp + bm
    ab = np.zeros((3,) + diag.shape)
    ab[0, ..., 1:] = -bp[..., :-1]
    ab[1] = diag
    ab[2, ..., :-1] = -bm[..., 1:]
    rhs = cost_k + a * v_prev[..., 1:]  # the I = 0 neighbour is pinned at 0
    x = _solve_banded()((1, 1), ab.reshape(3, -1), rhs.reshape(-1))
    return x.reshape(diag.shape)


def _control_set(controls, params: PlannerParams):
    # None (the exact minimizer) or the sorted finite control set.
    if controls is None:
        return None
    Ls = np.sort(np.asarray(controls, dtype=float))
    if Ls.size < 1 or Ls[0] < 0.0 or Ls[-1] > params.L_bar:
        raise ValueError("controls must lie within [0, L_bar]")
    return Ls


def solve_value_function(params: PlannerParams, grid: GridSpec,
                         tol: float | None = None, max_iters: int = 500,
                         controls=None):
    """Solve the discrete Bellman equation; returns (ValueField, PolicyField).

    The I = 0 edge is pinned at 0 and the S = 0 edge at its closed form.
    Interior rows are solved in ascending S order, each by policy
    iteration until the row's sup-norm Bellman residual drops below tol
    (default 1e-8 * w); max_iters bounds the iterations spent on any one
    row. Each step minimizes the discrete Hamiltonian exactly over
    [0, L_bar], or over the finite set controls when one is given. The
    returned policy is the minimizer of the row's last step, which is
    taken at the converged values, with ties broken toward smaller L;
    it is 0 on both pinned edges. This is solve_stacked for one cost.
    """
    (outcome,) = solve_stacked(params, grid, (params.cost_per_death,),
                               tol, max_iters, controls)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def solve_stacked(params: PlannerParams, grid: GridSpec, costs,
                  tol: float | None = None, max_iters: int = 500,
                  controls=None) -> list:
    """Solve the planner problem for several death costs in one row march.

    Returns a list aligned with costs. Each entry is what
    solve_value_function returns for params with that cost_per_death, bit
    for bit, or the SolverConvergenceError or SolverNumericalError it
    raises, as the exception object: one cost's failure leaves the others
    untouched. Every policy-iteration step advances all the costs whose
    current row is still unconverged with one minimization and one
    block-diagonal tridiagonal solve. A cost is frozen at the step where
    its row residual drops below tol, so it runs exactly the steps of its
    own solve. A ValueError (an invalid cost, tol, max_iters or control
    set) is raised for the whole call.
    """
    if tol is None:
        tol = 1e-8 * params.w
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    Ls = _control_set(controls, params)
    priced = [replace(params, cost_per_death=c) for c in costs]

    logger.info("solving %dx%d grid, %s, R0=%.3f", grid.n_S, grid.n_I,
                "exact control" if Ls is None else f"{Ls.size} controls",
                basic_reproduction_number(params))

    sN = grid.s_nodes()
    iN = grid.i_nodes()
    hS = sN[1] - sN[0]
    hI = iN[1] - iN[0]
    rho = params.r + params.nu
    I_act = iN[1:]
    # The value of one death per cost, broadcast over nodes and controls.
    price = np.array([p.cost_per_death + p.chi
                      for p in priced])[:, None, None]

    # One value and one policy array per cost, written row by row; a
    # failed cost's arrays are dropped.
    Vs = [np.zeros((grid.n_S, grid.n_I)) for _ in priced]
    L_fields = [np.zeros((grid.n_S, grid.n_I)) for _ in priced]
    for V, p in zip(Vs, priced):
        V[0, :] = boundary_value_s_zero(iN, p)
    failures = [None] * len(priced)
    live = np.arange(len(priced))     # the costs that have not failed
    v_prev = np.stack([V[0] for V in Vs])

    for i in range(1, grid.n_S):
        S = sN[i]
        v = v_prev.copy()             # warm start from the row below
        v[:, 0] = 0.0
        L_row = np.zeros((live.size, grid.n_I - 1))
        todo = np.arange(live.size)   # rows of v not yet converged
        for _ in range(max_iters):
            # Basic slices while every live cost is still iterating.
            every = todo.size == live.size
            v_t = v if every else v[todo]
            prev_t = v_prev if every else v_prev[todo]
            Hk, Lk, flow_k, fI_k, cost_k = _row_minimize(
                S, I_act, v_t, prev_t, hS, hI, params, Ls,
                price if every else price[todo])
            residual = np.abs(rho * v_t[:, 1:] - Hk).max(axis=-1)
            if any(r < tol for r in residual.tolist()):
                done = residual < tol
                L_row[todo[done]] = Lk[done]
                busy = ~done
                todo = todo[busy]
                if not todo.size:
                    break
                flow_k, fI_k, cost_k, prev_t, residual = (
                    flow_k[busy], fI_k[busy], cost_k[busy], prev_t[busy],
                    residual[busy])
            v_new = _row_policy_eval(rho, flow_k, fI_k, cost_k, prev_t,
                                     hS, hI)
            if not np.isfinite(v_new).all():
                ok = _isolate(v_new, failures, i, live[todo], rho, flow_k,
                              fI_k, cost_k, prev_t, hS, hI)
                todo, v_new, residual = todo[ok], v_new[ok], residual[ok]
                if not todo.size:
                    break
            if todo.size == live.size:
                v[:, 1:] = v_new
            else:
                v[todo, 1:] = v_new
        else:
            for k, res in zip(live[todo].tolist(), residual.tolist()):
                failures[k] = SolverConvergenceError(
                    f"row {i} did not converge in {max_iters} iterations "
                    f"(last residual {res:.3e})", residual=res, row=i)
        alive = [failures[k] is None for k in live.tolist()]
        for row, k in enumerate(live.tolist()):
            if alive[row]:
                Vs[k][i] = v[row]
                L_fields[k][i, 1:] = L_row[row]
            else:
                Vs[k] = L_fields[k] = None
        if not all(alive):
            live, v, price = live[alive], v[alive], price[alive]
            if not live.size:
                break
        v_prev = v

    out = []
    for k in range(len(priced)):
        if failures[k] is not None:
            out.append(failures[k])
            continue
        logger.info("solve finished, V(1,1)=%.6f", Vs[k][-1, -1])
        # ValueField keeps a copy; drop the raw array at once.
        out.append((ValueField(grid, Vs[k]), PolicyField(grid, L_fields[k])))
        Vs[k] = None
    return out


def _isolate(v_new, failures, i, costs, rho, flow_k, fI_k, cost_k, v_prev,
             hS, hI):
    # A non-finite block may be the victim of a neighbour's overflow
    # (0 * inf across the zero coupling), so each is solved again on its
    # own: a finite result replaces it, a non-finite one fails its cost
    # at the first bad node, as the cost's own solve would. Returns the
    # mask of blocks that are still iterating.
    ok = np.ones(len(costs), dtype=bool)
    for b in np.flatnonzero(~np.isfinite(v_new).all(axis=1)).tolist():
        one = slice(b, b + 1)
        alone = _row_policy_eval(rho, flow_k[one], fI_k[one], cost_k[one],
                                 v_prev[one], hS, hI)[0]
        if np.all(np.isfinite(alone)):
            v_new[b] = alone
            continue
        j_bad = int(np.argmin(np.isfinite(alone)))
        failures[costs[b]] = SolverNumericalError(
            f"non-finite value at node ({i}, {j_bad + 1})",
            node=(i, j_bad + 1))
        ok[b] = False
    return ok


def bellman_residual(value_field: ValueField, params: PlannerParams,
                     controls=None) -> float:
    """Sup-norm residual of the discrete Bellman equation at interior nodes.

    Recomputed from scratch with the solver's own minimizer: exact over
    [0, L_bar] by default, so on a solved field it is below the solve
    tolerance; over the finite set controls when one is given, which
    measures how far that set falls short of the exact minimum.
    """
    grid = value_field.grid
    V = value_field.values
    Ls = _control_set(controls, params)
    sN = grid.s_nodes()
    iN = grid.i_nodes()
    hS = sN[1] - sN[0]
    hI = iN[1] - iN[0]
    rho = params.r + params.nu
    I_act = iN[1:]
    worst = 0.0
    for i in range(1, grid.n_S):
        Hk, _, _, _, _ = _row_minimize(sN[i], I_act, V[i], V[i - 1], hS, hI,
                                       params, Ls)
        worst = max(worst, float(np.max(np.abs(rho * V[i, 1:] - Hk))))
    return worst


@dataclass(frozen=True)
class ScenarioSummary:
    """Headline outcomes of one closed-loop simulation."""

    total_deaths: float       # D at the horizon
    gdp_loss: float           # discounted lockdown output loss
    death_cost: float         # discounted death cost
    value: float              # gdp_loss + death_cost
    peak_I: float
    peak_L: float
    lockdown_years: float     # time with L above the reporting threshold
    lockdown_end: float       # last sample time with L above threshold
    horizon: float

    def as_lines(self):
        names = ("total_deaths", "gdp_loss", "death_cost", "value", "peak_I",
                 "peak_L", "lockdown_years", "lockdown_end", "horizon")
        return [f"{n}={getattr(self, n)!r}" for n in names]


def _policy_controller(policy: PolicyField | None, params: PlannerParams):
    """The closed-loop control of _integrate: control(S, I, R, D, t) -> L.

    L is the policy field's bilinear interpolation at (S, I), read in
    place from the field and clamped to [0, L_bar], so every stage passes
    the integrator's range check; None gives no lockdown. It depends on
    S and I only. Its arithmetic is that of the interpolation on numpy
    scalars, operation for operation, so simulations equal the array
    reference in tests/test_rk4_reference.py bit for bit.
    """
    if policy is None:
        return lambda S, I, R, D, t: 0.0
    at = policy._interpolate
    L_bar = params.L_bar

    def control(S, I, R, D, t):
        return min(max(at(S, I), 0.0), L_bar)

    return control


def _discount_quadratures(params: PlannerParams):
    rho = params.r + params.nu

    def extra(S, I, L, t):
        disc = math.exp(-rho * t)
        gdp, deaths = _flow_cost_terms(S, I, L, params)
        return (disc * gdp, disc * deaths)

    return extra


def _require_long_horizon(params: PlannerParams, horizon: float):
    rho = params.r + params.nu
    if math.exp(-rho * horizon) >= 1e-6:
        raise ValueError(
            f"horizon {horizon!r} too short: need exp(-(r+nu)*T) < 1e-6, "
            f"i.e. T > {math.log(1e6) / rho:.2f}")


def evaluate_policy(policy: PolicyField, params: PlannerParams,
                    state0: EpidemicState, horizon: float,
                    dt: float) -> float:
    """Discounted cost of following a fixed policy from state0.

    Simulates the closed loop with the shared RK4 integrator and
    accumulates exp(-(r+nu)t) * flow_cost as an extra quadrature state.
    The horizon must be long enough that the discount tail is below 1e-6.
    """
    _require_long_horizon(params, horizon)
    control = _policy_controller(policy, params)
    _, extras = _integrate(state0, control, params, horizon, dt,
                           extra_rhs=_discount_quadratures(params), n_extra=2)
    return float(extras[0] + extras[1])


def simulate_optimal(policy: PolicyField | None, params: PlannerParams,
                     state0: EpidemicState, horizon: float,
                     dt: float):
    """Closed-loop simulation under a solved policy (None = no control).

    Returns (Trajectory, ScenarioSummary). The lockdown applied at each
    state is the bilinear interpolation of the policy field, clamped to
    [0, L_bar].
    """
    control = _policy_controller(policy, params)
    traj, extras = _integrate(state0, control, params, horizon, dt,
                              extra_rhs=_discount_quadratures(params),
                              n_extra=2)
    locked = traj.L > LOCKDOWN_THRESHOLD
    step = np.diff(traj.t)
    lock_years = float(np.sum(step[locked[:-1]]))
    lock_end = float(traj.t[locked].max()) if locked.any() else 0.0
    summary = ScenarioSummary(
        total_deaths=float(traj.D[-1]),
        gdp_loss=float(extras[0]),
        death_cost=float(extras[1]),
        value=float(extras[0] + extras[1]),
        peak_I=float(traj.I.max()),
        peak_L=float(traj.L.max()),
        lockdown_years=lock_years,
        lockdown_end=lock_end,
        horizon=float(horizon),
    )
    return traj, summary
