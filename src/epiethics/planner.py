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
& Lippi (AER: Insights 2021). Ties go to the smaller L: the candidates
are built in ascending order, not sorted, which gives a sort's bits (see
_row_candidates). A finite control set can be given instead; the tests'
oracles use one.

S never increases, so each S-row of the discrete system depends only on
itself and on the row below. Rows are solved in ascending S order, each
by policy iteration on its tridiagonal system; this converges to the
same discrete fixed point as global pseudo-time value iteration (which
the tests use as an oracle on small grids) at a small fraction of the
iteration count, which is what makes the default 300x300 grid cheap.

Each row's first guess is extrapolated in S from the rows below it:
3*V[i-1] - 3*V[i-2] + V[i-3], off by O(h_S^3) where a flat copy of the
row below is off by O(h_S). Policy iteration is Newton's method on the
row's Bellman equation (Puterman & Brumelle, Math. Oper. Res. 1979), so
the closer guess needs fewer steps: about 1.1 per row on the default
grid instead of 4.6. The guess only picks the first policy, or is kept
as it is if its own residual is already below tol. Howard's policy
iteration converges from any first policy, and the stopping rule (row
residual below tol) does not depend on the guess, so every solve still
ends within tol of the same discrete fixed point.

Problems that differ only in the price of a death (a sensitivity sweep)
march through the rows together: the row functions take a leading
scenario axis, and each policy-iteration step solves the rows of all
unconverged scenarios as one block-diagonal tridiagonal system whose
couplings across blocks are exact zeros. A scenario stops iterating at
the step where its own row converges, so it runs exactly the operations
of its own solve and its results are bit for bit the same. A scenario
whose block of the row solve is not finite, as when its death price
overflows, fails alone at its first non-finite node and takes no
further steps; solve_value_function is the one-scenario case of
solve_stacked.

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
import os
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .epidemic import EpidemicState, PlannerParams, \
    basic_reproduction_number, _flows, _integrate, _lockdown_loss, \
    _no_lockdown, _require

__all__ = [
    "GridSpec",
    "PolicyField",
    "ScenarioSummary",
    "SolverConvergenceError",
    "SolverNumericalError",
    "ValueField",
    "bellman_residual",
    "boundary_value_s_zero",
    "resolved_tol",
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


def _bilinear(grid: GridSpec, values: np.ndarray, lo=-math.inf,
              hi=math.inf, params: PlannerParams | None = None):
    """Clamped bilinear interpolation of a grid field, as f(S, I) -> float.

    (S, I) is clamped to the unit square and the result to [lo, hi]. The
    field is read in place through a memoryview, which yields plain
    floats: no numpy scalar per call and no copy of the field, only of
    the node coordinates.

    S and I must be floats, not NaN (the fields' at() and _integrate's
    start check reject it); further arguments are ignored, so a clamp
    to [0, L_bar] serves as _integrate's control(S, I, R, D, t) as is.

    The clamps of S and I to the unit square and of the cell index to
    the top cell are comparisons, which cost less per call than min and
    max and give the same bits: min and max return their first argument
    unless the other compares strictly past it, so a -0.0 stays -0.0
    either way, and no NaN reaches them. The result's clamp to [lo, hi]
    keeps min and max; the zero-cell shortcut returns before it on many
    calls, so comparisons there measured no faster.

    A point in a cell whose four corners are all +0.0 gets the clamp of
    +0.0 without interpolating, read from a byte mask of such cells. That
    is exact: on each axis one of the weight factors 1 - x and x has a
    clear sign bit, so at least one of the four corner weights is >= 0,
    its product with +0.0 is +0.0, and so is the sum of the four. A -0.0
    corner keeps its cell off the mask, as the interpolation may then
    give -0.0.

    Given params, returns (at, settled) for _integrate. settled(S, I)
    holds when S >= 0, I >= 0, fl(beta*S) < gamma and every cell in
    [0..i] x [0..j] is on the mask, with (i, j) the cell at() reads for
    (S, I). That index never falls as S or I grows, so at() then returns
    the clamp of +0.0, which is +0.0 for lo <= 0 <= hi, at every point
    (S', I') with S' <= S and I' <= I. The rectangle test reads one
    bound per row: reach[i], the fewest leading mask cells of any row
    0..i, exceeds j exactly when the rectangle is on the mask.
    """
    sN, iN, hS, hI = _mesh(grid)
    s_nodes = sN.tolist()
    i_nodes = iN.tolist()
    i_top = grid.n_S - 2
    j_top = grid.n_I - 2
    field = memoryview(values)
    plus_zero = (values == 0.0) & ~np.signbit(values)
    zero_mask = (plus_zero[:-1, :-1] & plus_zero[1:, :-1]
                 & plus_zero[:-1, 1:] & plus_zero[1:, 1:])
    zero_cells = memoryview(zero_mask)
    at_zero = min(max(0.0, lo), hi)

    def at(S, I, *_):
        if S < 0.0:
            S = 0.0
        elif S > 1.0:
            S = 1.0
        if I < 0.0:
            I = 0.0
        elif I > 1.0:
            I = 1.0
        i = int(S / hS)
        if i > i_top:
            i = i_top
        j = int(I / hI)
        if j > j_top:
            j = j_top
        if zero_cells[i, j]:
            return at_zero
        xs = (S - s_nodes[i]) / hS
        xi = (I - i_nodes[j]) / hI
        return min(max((1 - xs) * (1 - xi) * field[i, j]
                       + xs * (1 - xi) * field[i + 1, j]
                       + (1 - xs) * xi * field[i, j + 1]
                       + xs * xi * field[i + 1, j + 1], lo), hi)

    if params is None:
        return at
    lead = np.where(zero_mask.all(axis=1), j_top + 1,
                    zero_mask.argmin(axis=1))
    reach = np.minimum.accumulate(lead).tolist()
    beta, gamma = params.beta_contact, params.gamma

    def settled(S, I):
        # at()'s cell: for S, I >= 0 its comparison clamps are min's.
        if not (S >= 0.0 and I >= 0.0 and beta * S < gamma):
            return False
        i = min(int(min(S, 1.0) / hS), i_top)
        return min(int(min(I, 1.0) / hI), j_top) < reach[i]

    return at, settled


def _point(S, I):
    # (S, I) as floats for a field's at(); a NaN lies in no grid cell.
    S, I = float(S), float(I)
    if math.isnan(S) or math.isnan(I):
        raise ValueError(f"cannot interpolate at (S, I) = ({S!r}, {I!r})")
    return S, I


class _GridField:
    # A finite array on the grid's nodes, read at a point by clamped
    # bilinear interpolation. A subclass names its array field and what
    # its entries are, and checks their range itself.

    def _checked(self) -> np.ndarray:
        v = np.asarray(getattr(self, self._array), dtype=float)
        if v.shape != (self.grid.n_S, self.grid.n_I):
            raise ValueError(f"{self._array} shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite {self._entries} entries")
        return v

    def at(self, S: float, I: float) -> float:
        """Bilinear interpolation, clamped to the unit square."""
        return self._interpolate(*_point(S, I))

    @cached_property
    def _interpolate(self):
        return _bilinear(self.grid, getattr(self, self._array))


@dataclass(frozen=True)
class ValueField(_GridField):
    """Planner value V on the grid; V >= 0, V(S, 0) = 0 exactly."""

    grid: GridSpec
    values: np.ndarray
    _array, _entries = "values", "value"

    def __post_init__(self):
        v = self._checked()
        _check_floor(v.min())
        object.__setattr__(self, "values", np.maximum(v, 0.0))


def _check_floor(lowest):
    # Values below 0 by more than rounding are a fault: ValueField and a
    # solve that keeps no value array both refuse them.
    if lowest < -1e-12:
        raise ValueError(f"negative value entry {lowest!r}")


@dataclass(frozen=True)
class PolicyField(_GridField):
    """Lockdown L on the grid; every entry is checked to lie in [0, 1].

    A field holds no params, so it cannot check the tighter [0, L_bar]
    that the solver's policies keep.
    """

    grid: GridSpec
    lockdown: np.ndarray
    _array, _entries = "lockdown", "policy"

    def __post_init__(self):
        v = self._checked()
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("policy entries outside [0, 1]")
        object.__setattr__(self, "lockdown", v)

    @classmethod
    def constant(cls, grid: GridSpec, L: float) -> "PolicyField":
        return cls(grid, np.full((grid.n_S, grid.n_I), float(L)))


def boundary_value_s_zero(I, params: PlannerParams):
    """Closed-form V(0, I): no lockdown, I decays at rate gamma.

    With I(t) = I*exp(-gamma*t) the discounted death cost integrates to
    (cost_per_death + chi) * (phi0*I/(r+nu+gamma) + kappa*I^2/(r+nu+2*gamma)).
    """
    arr = np.asarray(I, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("infected share outside [0, 1]")
    rho = params.discount_rate
    out = params.death_price * (
        params.phi0 * arr / (rho + params.gamma)
        + params.kappa * arr ** 2 / (rho + 2.0 * params.gamma))
    return float(out) if out.ndim == 0 else out


def _row_quantities(S, I, L, params: PlannerParams, price=None):
    # Drift and cost pieces at nodes I (any shape) under lockdown L
    # (broadcastable against I), all from epidemic._flows: the infection
    # flow, the I-drift flow - exits, and the flow cost, lockdown output
    # loss plus the death flow dD valued at price. price, the value of
    # one death, defaults to params.death_price; the stacked solve passes
    # one per scenario, shaped to broadcast over its leading axis.
    if price is None:
        price = params.death_price
    flow, exits, dD = _flows(S, I, L, params)
    return flow, flow - exits, _lockdown_loss(S, I, L, params) + dD * price


def _hamiltonian(flow, f_I, cost, DS, DIp, DIm):
    # Upwind Hamiltonian; DS/DIp/DIm broadcast against the control axis.
    return cost - flow * DS + np.where(f_I > 0.0, f_I * DIp, f_I * DIm)


def _row_candidates(S, I, DS, DIp, DIm, params: PlannerParams):
    # The five candidate controls of the module docstring at every node
    # of one S-row (any leading scenario axes), in [0, L_bar] and in
    # ascending order, so that an argmin over them breaks ties toward
    # the smaller L.
    #
    # The order is built, not sorted: 0 and L_bar are the ends, and the
    # middle three are L_c, clipped to [0, L_bar] as a float, and the
    # two vertices capped at L_bar, put in order by a three-element
    # min/max network. That gives np.sort's output bit for bit, as no
    # candidate is NaN or -0.0: a vertex is > 0 where curv > a and +0.0
    # elsewhere (a NaN curv fails curv > a, and an infinite one gives
    # 1/theta > L_bar, capped), and L_c is finite for every row S >= h_S.
    theta = params.theta
    L_bar = params.L_bar
    L_c = (1.0 - math.sqrt(params.gamma / (params.beta_contact * S))) / theta
    L_c = min(max(L_c, 0.0), L_bar)
    a = _lockdown_loss(S, I, 1.0, params)
    scale = 2.0 * params.beta_contact * S * I * theta
    vertex = []
    for DI in (DIp, DIm):
        # The branch is a*L + curv*(1 - theta*L)^2/(2*theta) plus terms
        # free of L; its vertex lies above 0 only where curv > a (> 0).
        curv = scale * (DI - DS)
        above = curv > a
        vertex.append(np.minimum(np.where(
            above, (1.0 - a / np.where(above, curv, 1.0)) / theta, 0.0),
            L_bar))
    lo = np.minimum(*vertex)
    hi = np.maximum(*vertex)
    mid = np.maximum(lo, L_c)
    cand = np.empty(DS.shape + (5,))
    cand[..., 0] = 0.0
    np.minimum(lo, L_c, out=cand[..., 1])
    np.minimum(mid, hi, out=cand[..., 2])
    np.maximum(mid, hi, out=cand[..., 3])
    cand[..., 4] = L_bar
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

    # The candidates depend on the scenario; a finite control set does
    # not, and then flow and f_I are computed once on (nodes, controls)
    # and only the priced death term in cost spans the scenario axes.
    Ls = (_row_candidates(S, I, DS, DIp, DIm, params) if controls is None
          else controls)
    flow, f_I, cost = _row_quantities(S, I[:, None], Ls, params, price)
    H = _hamiltonian(flow, f_I, cost, DS[..., None], DIp[..., None],
                     DIm[..., None])
    k = H.argmin(axis=-1)             # first minimum = smallest L
    # Flat indices of the minimizers: cheaper than fancy indexing on
    # every axis. Each array's shape is a trailing part of H's, so the
    # flat index into H, modulo the array's size, indexes it.
    k += np.arange(0, H.size, H.shape[-1]).reshape(k.shape)

    def at_k(arr):
        return arr.ravel()[k if arr.size == H.size else k % arr.size]

    return at_k(H), at_k(Ls), at_k(flow), at_k(f_I), at_k(cost)


@cache
def _scipy_module(name: str):
    # The scipy submodule scipy.<name>, loaded once from its own file in
    # scipy's package directories without running scipy's __init__,
    # which would import most of scipy's compiled core: importing
    # scipy.linalg, say, takes about 0.1 s and 20 MB, mostly for scipy's
    # array-API layer, against 3 ms for its _flapack extension alone.
    # Any finder may locate the scipy package (finding a top-level
    # package runs none of its code), but the submodule's file must sit
    # under one of the package's search locations. The module is not
    # registered in sys.modules.
    full = f"scipy.{name}"
    root = find_spec("scipy")
    *package, _ = name.split(".")
    spec = None if root is None else PathFinder.find_spec(
        full, [os.path.join(path, *package)
               for path in root.submodule_search_locations or ()])
    if spec is None:
        raise ImportError(f"cannot find {full}", name=full)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gtsv():
    # LAPACK's tridiagonal solver, the routine solve_banded calls for a
    # (1, 1) band, called directly to skip scipy's wrapper. It is loaded
    # on the first row solve from scipy's _flapack extension module
    # itself. get_lapack_funcs(("gtsv",), (np.empty(0),)) returns this
    # very object; tests/test_hjb.py pins that.
    return _scipy_module("linalg._flapack").dgtsv


def _row_policy_eval(rho, flow_k, fI_k, cost_k, v_prev, hS, hI):
    """Solve the row's tridiagonal system for the fixed per-node policy.

    With leading scenario axes, the rows form one block-diagonal system
    whose couplings across block edges are exact zeros, solved in one
    call; a finite block equals the block solved alone. A block that
    overflows spreads NaN (0 * inf across a zero coupling) into its
    neighbours, so if the solution is not finite, or the coefficients
    of some block are not, every block is solved again alone: a block
    with non-finite coefficients comes back all NaN, and one that
    overflows on its own keeps its own non-finite nodes. As with
    solve_banded, a singular system raises LinAlgError.
    """
    a = flow_k / hS
    bp = np.where(fI_k > 0.0, fI_k, 0.0) / hI
    bp[..., -1] = 0.0                 # dropped term at the top edge
    bm = np.where(fI_k < 0.0, -fI_k, 0.0) / hI
    diag = rho + a + bp + bm
    rhs = cost_k + a * v_prev[..., 1:]  # the I = 0 neighbour is pinned at 0
    alone = diag.size == diag.shape[-1]   # one block: nothing to isolate
    # bp and bm are never NaN (a NaN drift gives 0 in both), so the
    # off-diagonals -bp and -bm are finite wherever the diagonal is.
    if np.isfinite(diag).all() and np.isfinite(rhs).all():
        # Sub- and super-diagonal, with the zero couplings across block
        # edges at the same places and of the same sign as in
        # solve_banded's band.
        lower = -bm
        lower[..., 0] = 0.0
        upper = -bp
        upper[..., -1] = 0.0
        # Every argument is a temporary, so LAPACK may overwrite them all.
        *_, x, info = _gtsv()(lower.ravel()[1:], diag.ravel(),
                              upper.ravel()[:-1], rhs.ravel(), 1, 1, 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gtsv")
        x = x.reshape(diag.shape)
        if alone or np.isfinite(x).all():
            return x
    elif alone:
        return np.full_like(diag, np.nan)
    return np.stack([_row_policy_eval(rho, *block, hS, hI)
                     for block in zip(flow_k, fI_k, cost_k, v_prev)])


def _control_set(controls, params: PlannerParams):
    # None (the exact minimizer) or the sorted finite control set.
    if controls is None:
        return None
    Ls = np.sort(np.asarray(controls, dtype=float))
    if Ls.size < 1 or Ls[0] < 0.0 or Ls[-1] > params.L_bar:
        raise ValueError("controls must lie within [0, L_bar]")
    return Ls


def _mesh(grid: GridSpec):
    # The solver's nodes and their spacings: (s_nodes, i_nodes, hS, hI),
    # the spacings as Python floats for _bilinear's per-call arithmetic;
    # an array divided by one gives the same bits as by an np.float64.
    sN = grid.s_nodes()
    iN = grid.i_nodes()
    return sN, iN, float(sN[1] - sN[0]), float(iN[1] - iN[0])


def resolved_tol(params: PlannerParams, tol: float | None = None) -> float:
    """The row residual tolerance a solve uses: tol, or 1e-8 * w if None."""
    return 1e-8 * params.w if tol is None else tol


def solve_value_function(params: PlannerParams, grid: GridSpec,
                         tol: float | None = None, max_iters: int = 500,
                         controls=None, keep_values: bool = True):
    """Solve the discrete Bellman equation; returns (ValueField, PolicyField).

    The I = 0 edge is pinned at 0 and the S = 0 edge at its closed form.
    Interior rows are solved in ascending S order, each by policy
    iteration until the row's sup-norm Bellman residual drops below tol
    (default 1e-8 * w); max_iters bounds the iterations spent on any one
    row. Each step minimizes the discrete Hamiltonian exactly over
    [0, L_bar], or over the finite set controls when one is given. The
    returned policy is the minimizer of the row's last step, which is
    taken at the converged values, with ties broken toward smaller L;
    it is 0 on both pinned edges. Each row starts from the quadratic
    extrapolation of the three rows below it (a flat copy of row 0 for
    row 1, the linear one from rows 0 and 1 for row 2); the start only
    picks the first policy, so it changes the step count, not the fixed
    point the residual test accepts. This is solve_stacked for one cost;
    with keep_values=False the value slot is None, as there.
    """
    (outcome,) = solve_stacked(params, grid, (params.cost_per_death,),
                               tol, max_iters, controls, keep_values)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@np.errstate(over="ignore", invalid="ignore")
def solve_stacked(params: PlannerParams, grid: GridSpec, costs,
                  tol: float | None = None, max_iters: int = 500,
                  controls=None, keep_values: bool = True) -> list:
    """Solve the planner problem for several death costs in one row march.

    Returns a list aligned with costs. Each entry is what
    solve_value_function returns for params with that cost_per_death, bit
    for bit, or the SolverConvergenceError or SolverNumericalError it
    raises, as the exception object: one cost's failure leaves the others
    untouched. On each row, every policy-iteration step advances the
    working set, the costs still iterating there, with one minimization
    and one block-diagonal tridiagonal solve. A cost leaves the working
    set at the step where its row residual drops below tol, so it runs
    exactly the steps of its own solve, or at the step where its block
    of the row solve is not finite, which fails it with
    SolverNumericalError at its first non-finite node; a failed cost
    takes no further steps. An overflowing death price fails its cost
    that way, so numpy's overflow and invalid-value warnings are off
    here. Each cost's rows start from an extrapolation of its own rows
    below (see solve_value_function). A ValueError (an invalid cost,
    tol, max_iters or control set) is raised for the whole call. Each
    cost's "solve finished" INFO line gives its policy-iteration steps,
    summed over rows, and its worst final row residual.

    With keep_values=False no full value array is kept: the march holds
    only its row windows (the current row and the three below it, whose
    last one gives the "solve finished" line's V(1,1)) and each solved
    entry is (None, PolicyField). A caller that reads only policies, as
    run_sensitivity and the simulate subcommand do, then holds one
    n_S x n_I array per cost instead of two, and the policies, log
    lines and errors are the same bit for bit. ValueField's floor check
    still runs, on the minimum of each row: a value below -1e-12 raises
    the same ValueError.
    """
    tol = resolved_tol(params, tol)
    if not tol > 0.0:                 # a NaN tol fails too
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    Ls = _control_set(controls, params)
    priced = [replace(params, cost_per_death=c) for c in costs]
    if not priced:
        return []

    logger.info("solving %dx%d grid, %s, R0=%.3f", grid.n_S, grid.n_I,
                "exact control" if Ls is None else f"{Ls.size} controls",
                basic_reproduction_number(params))

    sN, iN, hS, hI = _mesh(grid)
    rho = params.discount_rate
    I_act = iN[1:]

    # Every per-cost structure is indexed by the cost's place k in costs:
    # its outcome, None until it fails or its solve ends; its policy
    # array and, if kept, its value array, written row by row, or else
    # its lowest value so far; its price of a death, broadcast over nodes
    # and controls; its policy-iteration steps summed over rows and its
    # worst final row residual, for its "solve finished" line; and its
    # rows below the current one. A failed cost's rows are
    # still extrapolated but never read again. live holds the k of each
    # cost not failed so far; it and each row's working set are all that
    # narrow.
    out = [None] * len(priced)
    live = np.arange(len(priced))
    L_fields = [np.zeros((grid.n_S, grid.n_I)) for _ in priced]
    v_prev = np.stack([boundary_value_s_zero(iN, p) for p in priced])
    if keep_values:
        Vs = [np.zeros((grid.n_S, grid.n_I)) for _ in priced]
        for V, row in zip(Vs, v_prev):
            V[0] = row
    else:
        lowest = v_prev.min(axis=-1)
    price = np.array([p.death_price for p in priced])[:, None, None]
    steps = [0] * len(priced)
    worst = [0.0] * len(priced)
    older = ()                        # rows i-2 and i-3, nearest first

    for i in range(1, grid.n_S):
        S = sN[i]
        v = _warm_start(v_prev, *older)
        # The working set: the k of each cost still iterating on this
        # row, with its current row, row below and price, narrowed only
        # when some cost converges or fails.
        at, w, below, pw = live, v[live], v_prev[live], price[live]
        for step in range(max_iters):
            Hk, Lk, flow_k, fI_k, cost_k = _row_minimize(
                S, I_act, w, below, hS, hI, params, Ls, pw)
            residual = np.abs(rho * w[:, 1:] - Hk).max(axis=-1)
            if any(r < tol for r in residual.tolist()):
                done = residual < tol
                for k, row, L, res in zip(at[done].tolist(), w[done],
                                          Lk[done], residual[done].tolist()):
                    v[k] = row
                    if keep_values:
                        Vs[k][i] = row
                    L_fields[k][i, 1:] = L
                    steps[k] += step      # its row solves on this row
                    worst[k] = max(worst[k], res)
                busy = ~done
                at = at[busy]
                if not at.size:
                    break
                w, below, pw, flow_k, fI_k, cost_k, residual = (
                    x[busy] for x in (w, below, pw, flow_k, fI_k, cost_k,
                                      residual))
            w_new = _row_policy_eval(rho, flow_k, fI_k, cost_k, below, hS,
                                     hI)
            finite = np.isfinite(w_new)
            if not finite.all():
                ok = finite.all(axis=-1)
                for k, fin in zip(at[~ok].tolist(), finite[~ok]):
                    j = int(np.argmin(fin)) + 1
                    out[k] = SolverNumericalError(
                        f"non-finite value at node ({i}, {j})", node=(i, j))
                at = at[ok]
                if not at.size:
                    break
                w, below, pw, w_new, residual = (
                    x[ok] for x in (w, below, pw, w_new, residual))
            w[:, 1:] = w_new
        else:
            for k, res in zip(at.tolist(), residual.tolist()):
                out[k] = SolverConvergenceError(
                    f"row {i} did not converge in {max_iters} iterations "
                    f"(last residual {res:.3e}, tol {tol:.3e})",
                    residual=res, row=i)
        live = live[[out[k] is None for k in live.tolist()]]
        if not live.size:
            break
        if not keep_values:
            # Rows of failed costs may hold NaN; their entries go unread.
            np.minimum(lowest, v.min(axis=-1), out=lowest)
        v_prev, older = v, (v_prev, *older)[:2]

    for k in live.tolist():
        logger.info("solve finished, V(1,1)=%.6f, %d policy-iteration "
                    "steps, worst row residual %.3e", v_prev[k, -1],
                    steps[k], worst[k])
        if keep_values:
            # ValueField keeps a copy; drop the raw array at once.
            value, Vs[k] = ValueField(grid, Vs[k]), None
        else:
            _check_floor(lowest[k])
            value = None
        out[k] = (value, PolicyField(grid, L_fields[k]))
    return out


def _warm_start(v_prev, *older):
    # The first guess for the next row from the rows below it, nearest
    # first: a flat copy of one row, then the linear and the quadratic
    # extrapolation in S, off by O(h_S), O(h_S^2) and O(h_S^3). It only
    # picks the first policy; the I = 0 node is pinned at 0.
    if not older:
        v = v_prev.copy()
    elif len(older) == 1:
        v = 2.0 * v_prev - older[0]
    else:
        v = 3.0 * v_prev - 3.0 * older[0] + older[1]
    v[..., 0] = 0.0
    return v


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
    sN, iN, hS, hI = _mesh(grid)
    rho = params.discount_rate
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
        return [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]


def simulate_optimal(policy: PolicyField | None, params: PlannerParams,
                     state0: EpidemicState, horizon: float,
                     dt: float):
    """Closed-loop simulation under a solved policy (None = no control).

    Returns (Trajectory, ScenarioSummary). The lockdown at each state is
    the policy field's bilinear interpolation at (S, I), read in place
    and clamped to [0, L_bar] (_bilinear), or 0.0 for None. _integrate
    does not check that range; it holds by construction. A PolicyField
    is finite (its constructor checks) and _integrate rejects a NaN
    state before the control reads it (a NaN stage point would fail
    _bilinear's int()), so the final min(max(x, 0.0), L_bar) lands in
    [0, L_bar]. A state in a cell whose four corners are +0.0 gets
    L = 0.0 without interpolating, which is exact. The arithmetic is
    otherwise that of the interpolation on numpy scalars, operation for
    operation, so simulations equal the array reference in
    tests/test_rk4_reference.py bit for bit.

    The loop stops looking the policy up once lockdown is ruled out for
    good: _bilinear's settled test holds at a step start when
    beta*S < gamma, so S and I can only fall from there, and every cell
    at or below the state's, in S and in I, has four +0.0 corners. From
    that step on _integrate takes the zero control, which returns the
    +0.0 every later lookup would (its docstring has the proof). The
    benchmark sweep's six loops settle at steps 74 to 225 and look the
    policy up 296 to 900 times, against 29,201 for a loop that
    interpolates at every stage. The one RK4 loop,
    _integrate, also accumulates the discounted lockdown output loss and
    death cost, skipping the output-loss terms, all zero, of a step with
    no lockdown at any stage; the benchmark sweep's six loops start 0 to
    206 of their 7,300 steps locked down.
    """
    if policy is None:
        control, settled = _no_lockdown, None
    else:
        control, settled = _bilinear(policy.grid, policy.lockdown, 0.0,
                                     params.L_bar, params)
    traj, (gdp_loss, death_cost) = _integrate(state0, control, params,
                                              horizon, dt, settled)
    locked = traj.L > LOCKDOWN_THRESHOLD
    step = np.diff(traj.t)
    lock_years = float(np.sum(step[locked[:-1]]))
    lock_end = float(traj.t[locked].max()) if locked.any() else 0.0
    summary = ScenarioSummary(
        total_deaths=float(traj.D[-1]),
        gdp_loss=float(gdp_loss),
        death_cost=float(death_cost),
        value=float(gdp_loss + death_cost),
        peak_I=float(traj.I.max()),
        peak_L=float(traj.L.max()),
        lockdown_years=lock_years,
        lockdown_end=lock_end,
        horizon=float(horizon),
    )
    return traj, summary
