"""The stacked row march against one-cost row marches, bit for bit.

solve_stacked advances every death cost of a sweep through the S-rows
together: one minimization and one block-diagonal tridiagonal solve per
policy-iteration step, with each cost frozen once its row converges. The
reference below is the row march that solved one cost at a time before
the costs were stacked, copied in unchanged apart from names and the
first guess of each row, which it extrapolates from the rows below as
the solver does. Each cost runs exactly the operations of its own solve,
so V and L must be equal exactly, not to a tolerance, and a failing cost
must fail with the same error while the others come out unchanged.

The first guess only picks a row's first policy. Started from a flat
copy of the row below instead, the march stops at another field whose
Bellman residual is also below tol; the scheme is monotone, so the two
fields lie within 2*tol/(r+nu) of each other, which is checked here too.
"""

import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from epiethics import PlannerParams, parse_config
from epiethics import planner
from epiethics.planner import (GridSpec, SolverConvergenceError,
                               SolverNumericalError, bellman_residual,
                               boundary_value_s_zero, solve_stacked,
                               solve_value_function)
from epiethics.sensitivity import death_cost_from_criterion

CONFIG = parse_config(
    (Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg")
    .read_text())
PARAMS = CONFIG.params
# The sweep's six distinct costs on the benchmark config: the baseline,
# each criterion's derived cost and the ladder, first occurrence first.
COSTS = tuple(dict.fromkeys(
    (PARAMS.cost_per_death,)
    + tuple(death_cost_from_criterion(c, CONFIG.reference_pop, CONFIG.victim)
            for c in CONFIG.criteria)
    + CONFIG.ladder))


# ---------------------------------------------------------------------------
# the one-cost row march, as it was before stacking
# ---------------------------------------------------------------------------

def ref_quantities(S, I, L, params):
    lock = (1.0 - params.theta * L) ** 2
    flow = params.beta_contact * S * I * lock
    f_I = flow - params.gamma * I
    gdp = params.w * L * (params.tau * (S + I) + (1 - params.tau))
    deaths = (params.phi0 + params.kappa * I) * I \
        * (params.cost_per_death + params.chi)
    return flow, f_I, gdp + deaths


def ref_candidates(S, I, DS, DIp, DIm, params):
    theta = params.theta
    L_c = (1.0 - math.sqrt(params.gamma / (params.beta_contact * S))) / theta
    a = params.w * (params.tau * (S + I) + (1 - params.tau))
    scale = 2.0 * params.beta_contact * S * I * theta
    cand = np.empty((I.size, 5))
    cand[:, 0] = 0.0
    cand[:, 1] = params.L_bar
    cand[:, 2] = L_c
    for col, DI in ((3, DIp), (4, DIm)):
        curv = scale * (DI - DS)
        above = curv > a
        cand[:, col] = np.where(
            above, (1.0 - a / np.where(above, curv, 1.0)) / theta, 0.0)
    np.clip(cand, 0.0, params.L_bar, out=cand)
    cand.sort(axis=1)
    return cand


def ref_minimize(S, I, v_row, v_prev, hS, hI, params, controls):
    vj = v_row[1:]
    DS = (vj - v_prev[1:]) / hS
    DIp = np.empty_like(vj)
    DIp[:-1] = (v_row[2:] - v_row[1:-1]) / hI
    DIp[-1] = 0.0
    DIm = (v_row[1:] - v_row[:-1]) / hI
    if controls is None:
        Ls = ref_candidates(S, I, DS, DIp, DIm, params)
    else:
        Ls = np.broadcast_to(controls, (I.size, controls.size))
    flow, f_I, cost = ref_quantities(S, I[:, None], Ls, params)
    H = cost - flow * DS[:, None] + np.where(
        f_I > 0.0, f_I * DIp[:, None], f_I * DIm[:, None])
    k = np.argmin(H, axis=1)
    rows = np.arange(I.size)
    return (H[rows, k], Ls[rows, k], flow[rows, k], f_I[rows, k],
            cost[rows, k])


def ref_policy_eval(rho, flow_k, fI_k, cost_k, v_prev, hS, hI):
    a = flow_k / hS
    bp = np.where(fI_k > 0.0, fI_k, 0.0) / hI
    bp[-1] = 0.0
    bm = np.where(fI_k < 0.0, -fI_k, 0.0) / hI
    diag = rho + a + bp + bm
    n = diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = -bp[:-1]
    ab[1, :] = diag
    ab[2, :-1] = -bm[1:]
    rhs = cost_k + a * v_prev[1:]
    return solve_banded((1, 1), ab, rhs)


def reference_solve(params, grid, max_iters=500, controls=None,
                    policy_eval=ref_policy_eval, start="extrapolated"):
    """(V, L) of one cost, or the solver error it raises.

    start="extrapolated" begins each row from the rows below it, as the
    solver does; start="flat" from a copy of the row below, as the march
    did before the extrapolated start.
    """
    tol = 1e-8 * params.w
    Ls = None if controls is None else np.sort(np.asarray(controls, float))
    sN, iN = grid.s_nodes(), grid.i_nodes()
    hS, hI = sN[1] - sN[0], iN[1] - iN[0]
    rho = params.r + params.nu
    I_act = iN[1:]
    V = np.zeros((grid.n_S, grid.n_I))
    V[0, :] = boundary_value_s_zero(iN, params)
    L_field = np.zeros((grid.n_S, grid.n_I))
    for i in range(1, grid.n_S):
        S = sN[i]
        v_prev = V[i - 1]
        if start == "flat" or i == 1:
            v = v_prev.copy()
        elif i == 2:
            v = 2.0 * v_prev - V[0]
        else:
            v = 3.0 * v_prev - 3.0 * V[i - 2] + V[i - 3]
        v[0] = 0.0
        residual = math.inf
        for _ in range(max_iters):
            Hk, Lk, flow_k, fI_k, cost_k = ref_minimize(
                S, I_act, v, v_prev, hS, hI, params, Ls)
            residual = float(np.max(np.abs(rho * v[1:] - Hk)))
            if residual < tol:
                break
            v_new = policy_eval(rho, flow_k, fI_k, cost_k, v_prev, hS, hI)
            if not np.all(np.isfinite(v_new)):
                j_bad = int(np.argmin(np.isfinite(v_new)))
                return SolverNumericalError(
                    f"non-finite value at node ({i}, {j_bad + 1})",
                    node=(i, j_bad + 1))
            v[1:] = v_new
        else:
            return SolverConvergenceError(
                f"row {i} did not converge in {max_iters} iterations "
                f"(last residual {residual:.3e}, tol {tol:.3e})",
                residual=residual, row=i)
        V[i] = v
        L_field[i, 1:] = Lk
    return V, L_field


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        if isinstance(want, SolverConvergenceError):
            assert (got.row, got.residual) == (want.row, want.residual)
        else:
            assert got.node == want.node
        return
    value, policy = got
    V, L = want
    assert np.array_equal(value.values, V)
    assert np.array_equal(policy.lockdown, L)


def priced(cost):
    return replace(PARAMS, cost_per_death=cost)


# ---------------------------------------------------------------------------
# bit-equality on the benchmark sweep
# ---------------------------------------------------------------------------

def test_benchmark_costs_are_the_sweeps_six():
    assert len(COSTS) == 6
    assert COSTS[0] == 20.0 and 0.0 in COSTS and 40.0 in COSTS


def test_stacked_exact_solve_equals_one_cost_solves():
    grid = CONFIG.grid
    stacked = solve_stacked(PARAMS, grid, COSTS)
    for cost, got in zip(COSTS, stacked):
        assert_same_outcome(got, reference_solve(priced(cost), grid))


def test_stacked_finite_control_solve_equals_one_cost_solves():
    # The config's n_L evenly spaced controls, as the scan the exact
    # minimizer replaced.
    grid = CONFIG.grid
    controls = np.linspace(0.0, PARAMS.L_bar, grid.n_L)
    stacked = solve_stacked(PARAMS, grid, COSTS, controls=controls)
    for cost, got in zip(COSTS, stacked):
        assert_same_outcome(
            got, reference_solve(priced(cost), grid, controls=controls))


def test_one_cost_solve_equals_the_reference():
    grid = GridSpec(n_S=80, n_I=60)
    for cost in (COSTS[1], 0.0):
        got = solve_value_function(priced(cost), grid)
        assert_same_outcome(got, reference_solve(priced(cost), grid))


# ---------------------------------------------------------------------------
# the extrapolated first guess: fewer steps, the same fixed point
# ---------------------------------------------------------------------------

def monotone_bound(params):
    # How far apart two fields whose Bellman residuals are both below
    # tol can lie, for a monotone scheme with discount r + nu.
    return 2.0 * 1e-8 * params.w / (params.r + params.nu)


def count_row_solves(monkeypatch):
    # A list that gains one entry per _row_policy_eval call.
    real = planner._row_policy_eval
    calls = []

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(planner, "_row_policy_eval", counting)
    return calls


def test_benchmark_solve_makes_few_row_solves(monkeypatch):
    # 1,382 row solves from a flat first guess; about 340 extrapolated.
    calls = count_row_solves(monkeypatch)
    solve_value_function(PARAMS, CONFIG.grid)
    assert len(calls) <= 400


def test_benchmark_field_is_the_flat_starts_within_the_bound():
    grid = CONFIG.grid
    value, _ = solve_value_function(PARAMS, grid)
    V_flat, _ = reference_solve(PARAMS, grid, start="flat")
    assert bellman_residual(value, PARAMS) < 1e-8 * PARAMS.w
    assert np.max(np.abs(value.values - V_flat)) <= monotone_bound(PARAMS)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n_S=st.integers(20, 40), n_I=st.integers(20, 40),
       beta=st.floats(5.0, 80.0), gamma=st.floats(5.0, 40.0),
       theta=st.floats(0.05, 0.95), L_bar=st.floats(0.05, 1.0),
       tau=st.sampled_from((0, 1)), cost=st.floats(0.0, 200.0))
def test_extrapolated_start_reaches_the_flat_starts_fixed_point(
        n_S, n_I, beta, gamma, theta, L_bar, tau, cost):
    params = PlannerParams(beta_contact=beta, gamma=gamma, theta=theta,
                           L_bar=L_bar, tau=tau, cost_per_death=cost)
    grid = GridSpec(n_S=n_S, n_I=n_I)
    value, _ = solve_value_function(params, grid)
    V_flat, _ = reference_solve(params, grid, start="flat")
    assert bellman_residual(value, params) < 1e-8 * params.w
    assert np.max(np.abs(value.values - V_flat)) <= monotone_bound(params)


FINISHED = re.compile(r"solve finished, V\(1,1\)=\S+, (\d+) "
                      r"policy-iteration steps, worst row residual (\S+)$")


def finished_lines(records):
    return [FINISHED.match(r.getMessage()).groups() for r in records
            if r.getMessage().startswith("solve finished")]


def test_finished_line_reports_steps_and_worst_residual(monkeypatch, caplog):
    # The steps are the cost's row solves, summed over rows; its worst
    # final row residual is the field's Bellman residual.
    calls = count_row_solves(monkeypatch)
    params = priced(COSTS[1])
    with caplog.at_level(logging.INFO, logger="epiethics.planner"):
        value, _ = solve_value_function(params, SMALL)
    ((steps, worst),) = finished_lines(caplog.records)
    assert int(steps) == len(calls) > 0
    assert worst == f"{bellman_residual(value, params):.3e}"

    # Stacked, each cost reports the steps and residual of its own solve.
    caplog.clear()
    monkeypatch.undo()
    with caplog.at_level(logging.INFO, logger="epiethics.planner"):
        solve_stacked(PARAMS, SMALL, COSTS)
        stacked = finished_lines(caplog.records)
        caplog.clear()
        for cost in COSTS:
            solve_value_function(priced(cost), SMALL)
        alone = finished_lines(caplog.records)
    assert stacked == alone
    assert stacked[COSTS.index(0.0)][0] == "0"


# ---------------------------------------------------------------------------
# one cost failing leaves the others bit-equal
# ---------------------------------------------------------------------------

SMALL = GridSpec(n_S=60, n_I=60)


def test_iteration_bound_fails_only_the_costs_that_exceed_it():
    # The smallest bound at which some costs need more steps on some row
    # than it allows while a cost other than 0 (which converges at the
    # first step of every row) stays within it.
    for m in range(2, 10):
        want = [reference_solve(priced(c), SMALL, max_iters=m)
                for c in COSTS]
        failed = [isinstance(o, SolverConvergenceError) for o in want]
        if any(failed) and any(not f for f, c in zip(failed, COSTS) if c):
            break
    else:
        pytest.fail("no bound splits the costs")
    stacked = solve_stacked(PARAMS, SMALL, COSTS, max_iters=m)
    for got, expect in zip(stacked, want):
        assert_same_outcome(got, expect)


def poison_dear_blocks(real):
    # NaN in every block whose top-edge cost says it prices a death above
    # 30 (only the 40 on the ladder): a block of that cost fails wherever
    # it is solved, the others are untouched.
    def poisoned(rho, flow_k, fI_k, cost_k, v_prev, hS, hI):
        out = real(rho, flow_k, fI_k, cost_k, v_prev, hS, hI)
        out[cost_k[..., -1] > 30.0] = np.nan
        return out
    return poisoned


def test_non_finite_block_fails_only_its_cost(monkeypatch):
    want = [reference_solve(priced(c), SMALL,
                            policy_eval=poison_dear_blocks(ref_policy_eval))
            for c in COSTS]
    assert [isinstance(w, SolverNumericalError) for w in want] \
        == [c == 40.0 for c in COSTS]
    monkeypatch.setattr(planner, "_row_policy_eval",
                        poison_dear_blocks(planner._row_policy_eval))
    for got, expect in zip(solve_stacked(PARAMS, SMALL, COSTS), want):
        assert_same_outcome(got, expect)


def test_overflow_spilling_into_neighbours_is_solved_again(monkeypatch):
    # A death price near the float limit breaks its own block of the row
    # solve. At 1e308 the stacked solve overflows there and spreads NaN
    # (0 * inf across a zero coupling) into the cost-20 block; at 1.7e308
    # the block's coefficients themselves overflow. Either way the row
    # solve solves every block again alone: the dear cost fails at its
    # first node and its neighbours come out exact.
    real = planner._gtsv()
    bad_blocks = []

    def watched(lower, diag, upper, rhs, *flags):
        *rest, x, info = real(lower, diag, upper, rhs, *flags)
        bad_blocks.append(
            (~np.isfinite(x.reshape(-1, SMALL.n_I - 1)).all(axis=1)).tolist())
        return (*rest, x, info)

    monkeypatch.setattr(planner, "_gtsv", lambda: watched)
    for dear in (1e308, 1.7e308):
        costs = (20.0, dear, 10.0)
        for cost, got in zip(costs, solve_stacked(PARAMS, SMALL, costs)):
            if cost == dear:
                assert isinstance(got, SolverNumericalError)
                assert str(got) == "non-finite value at node (1, 1)"
                assert got.node == (1, 1)
            else:
                assert_same_outcome(got, reference_solve(priced(cost), SMALL))
    # The stacked solve at 1e308 did spill into the cost-20 block.
    assert [True, True, False] in bad_blocks


def test_solve_value_function_raises_the_stacked_failure():
    with pytest.raises(SolverConvergenceError) as err:
        solve_value_function(priced(40.0), SMALL, max_iters=1)
    assert_same_outcome(err.value,
                        reference_solve(priced(40.0), SMALL, max_iters=1))


def test_invalid_cost_rejects_the_whole_call():
    with pytest.raises(ValueError, match="cost_per_death"):
        solve_stacked(PARAMS, SMALL, (20.0, -1.0))


def test_no_costs_is_no_solves():
    assert solve_stacked(PARAMS, SMALL, ()) == []
    # The other arguments are still checked.
    for bad in ({"tol": 0.0}, {"max_iters": 0}, {"controls": [0.9]}):
        with pytest.raises(ValueError):
            solve_stacked(PARAMS, SMALL, (), **bad)
