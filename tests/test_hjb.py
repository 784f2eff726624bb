"""Optimal-lockdown solver tests.

Independent oracles used here:
  * a 1-D quadrature of the discounted death flow for the S = 0 edge;
  * an explicit pseudo-time value iteration (CFL-limited Jacobi sweeps,
    written from scratch below) converging to the same discrete Bellman
    fixed point as the production row-marching solver;
  * a dense linear-system assembly for single-control policy evaluation;
  * closed-loop simulation of fixed policies, which upper-bounds the
    optimal value.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.linalg import solve_banded

from epiethics import EpidemicState, PlannerParams
from epiethics.planner import (
    GridSpec,
    PolicyField,
    SolverConvergenceError,
    SolverNumericalError,
    ValueField,
    _row_minimize,
    _row_policy_eval,
    _row_quantities,
    bellman_residual,
    boundary_value_s_zero,
    simulate_optimal,
    solve_value_function,
)

PARAMS = PlannerParams()
START = EpidemicState(S=0.98, I=0.02)
HORIZON = 20.0
DT = 1 / 365


@pytest.fixture(scope="module")
def bench():
    """One benchmark solve shared by the read-only field tests."""
    vf, pf = solve_value_function(PARAMS, GridSpec())
    return vf, pf


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def cfl_value_iteration(params, grid, controls, tol=1e-12,
                        max_sweeps=500_000):
    """Explicit pseudo-time iteration on the same upwind discretization.

    Every interior node is relaxed simultaneously by
    V <- V + dtau * (min_L H(V) - rho V) with dtau under the CFL bound,
    until the sweep-to-sweep change drops below tol. Slow but simple;
    used as an oracle on small grids only.
    """
    sN, iN = grid.s_nodes(), grid.i_nodes()
    hS, hI = sN[1] - sN[0], iN[1] - iN[0]
    rho = params.r + params.nu
    Ls = np.sort(np.asarray(controls, dtype=float))
    V = np.zeros((grid.n_S, grid.n_I))
    V[0, :] = boundary_value_s_zero(iN, params)
    flow_max = params.beta_contact
    f_max = max(flow_max, params.gamma)
    dtau = 0.9 / (rho + flow_max / hS + f_max / hI)
    S = sN[1:, None, None]
    I = iN[None, 1:, None]
    L = Ls[None, None, :]
    flow, f_I, cost = _row_quantities(S, I, L, params)
    for _ in range(max_sweeps):
        DS = (V[1:, 1:] - V[:-1, 1:]) / hS
        DIp = np.zeros_like(V[1:, 1:])
        DIp[:, :-1] = (V[1:, 2:] - V[1:, 1:-1]) / hI
        DIm = (V[1:, 1:] - V[1:, :-1]) / hI
        H = cost - flow * DS[:, :, None] + np.where(
            f_I > 0.0, f_I * DIp[:, :, None], f_I * DIm[:, :, None])
        new = V[1:, 1:] + dtau * (H.min(axis=2) - rho * V[1:, 1:])
        change = np.max(np.abs(new - V[1:, 1:]))
        V[1:, 1:] = new
        if change < tol:
            return V
    raise AssertionError("oracle iteration did not converge")


def dense_single_control(params, grid, L):
    """Assemble and solve the upwind system for one fixed control."""
    sN, iN = grid.s_nodes(), grid.i_nodes()
    hS, hI = sN[1] - sN[0], iN[1] - iN[0]
    rho = params.r + params.nu
    edge = boundary_value_s_zero(iN, params)
    ns, ni = grid.n_S - 1, grid.n_I - 1     # interior extent
    idx = lambda i, j: (i - 1) * ni + (j - 1)
    A = np.zeros((ns * ni, ns * ni))
    b = np.zeros(ns * ni)
    for i in range(1, grid.n_S):
        for j in range(1, grid.n_I):
            flow, f_I, cost = _row_quantities(sN[i], iN[j], L, params)
            k = idx(i, j)
            A[k, k] += rho + flow / hS
            b[k] += cost
            if i > 1:
                A[k, idx(i - 1, j)] -= flow / hS
            else:
                b[k] += flow / hS * edge[j]
            if f_I > 0.0 and j < grid.n_I - 1:
                A[k, k] += f_I / hI
                A[k, idx(i, j + 1)] -= f_I / hI
            elif f_I < 0.0:
                A[k, k] += -f_I / hI
                if j > 1:
                    A[k, idx(i, j - 1)] -= -f_I / hI
                # the j = 0 neighbour is pinned at 0
    V = np.zeros((grid.n_S, grid.n_I))
    V[0, :] = edge
    V[1:, 1:] = np.linalg.solve(A, b).reshape(ns, ni)
    return V


# ---------------------------------------------------------------------------
# running cost and boundary closed form
# ---------------------------------------------------------------------------

def test_flow_cost_examples():
    # The solver's flow cost is _row_quantities' third entry.
    # Testable recovered (tau = 1): only the S + I share loses output.
    assert _row_quantities(0.6, 0.0, 0.5, PARAMS)[2] == 0.30
    # Untestable (tau = 0): the whole population is locked down.
    assert _row_quantities(0.6, 0.0, 0.5, PlannerParams(tau=0))[2] == 0.50
    assert _row_quantities(0.6, 0.0, 0.0, PARAMS)[2] == 0.0


def test_flow_cost_includes_death_valuation():
    got = _row_quantities(0.6, 0.2, 0.0, PARAMS)[2]
    expect = (PARAMS.phi0 + PARAMS.kappa * 0.2) * 0.2 * PARAMS.cost_per_death
    assert got == pytest.approx(expect, rel=1e-15)


def test_boundary_value_closed_form_vs_quadrature():
    # With no susceptibles the epidemic decays freely; the value is the
    # discounted stream of death costs, integrable in closed form.
    rho = PARAMS.r + PARAMS.nu
    price = PARAMS.cost_per_death + PARAMS.chi

    def oracle(I0):
        integrand = lambda t: (
            np.exp(-rho * t)
            * (PARAMS.phi0 + PARAMS.kappa * I0 * np.exp(-PARAMS.gamma * t))
            * I0 * np.exp(-PARAMS.gamma * t) * price)
        val, _ = quad(integrand, 0.0, 60.0, limit=200)
        return val

    for I0 in np.linspace(0.0, 1.0, 50):
        assert abs(boundary_value_s_zero(I0, PARAMS) - oracle(I0)) < 1e-8
    assert boundary_value_s_zero(0.0, PARAMS) == 0.0


# ---------------------------------------------------------------------------
# solver versus oracles
# ---------------------------------------------------------------------------

def test_solver_matches_pseudo_time_iteration():
    cases = [
        (GridSpec(n_S=6, n_I=6, n_L=4), np.linspace(0.0, PARAMS.L_bar, 4)),
        (GridSpec(n_S=9, n_I=7, n_L=6), np.linspace(0.0, PARAMS.L_bar, 6)),
    ]
    for grid, controls in cases:
        oracle = cfl_value_iteration(PARAMS, grid, controls)
        vf, _ = solve_value_function(PARAMS, grid, controls=controls)
        assert np.max(np.abs(oracle - vf.values)) < 1e-6


def test_single_control_solve_is_direct_policy_evaluation():
    # With one admissible control the Bellman solve degenerates to policy
    # evaluation; an independently assembled dense solve must agree.
    grid = GridSpec(n_S=3, n_I=3, n_L=2)
    vf, pf = solve_value_function(PARAMS, grid, controls=[0.0])
    dense = dense_single_control(PARAMS, grid, 0.0)
    assert np.max(np.abs(vf.values - dense)) < 1e-6
    np.testing.assert_array_equal(pf.lockdown, 0.0)

    grid = GridSpec(n_S=5, n_I=4, n_L=2)
    vf, _ = solve_value_function(PARAMS, grid, controls=[0.3])
    dense = dense_single_control(PARAMS, grid, 0.3)
    assert np.max(np.abs(vf.values - dense)) < 1e-6


def test_no_lockdown_value_matches_forward_simulation():
    # Restricting the control set to {0} must reproduce, at the epidemic
    # starting point, the discounted cost of simply simulating with no
    # control (first-order grid, hence the 1e-3 tolerance).
    vf, _ = solve_value_function(PARAMS, GridSpec(n_L=2), controls=[0.0])
    simulated = simulate_optimal(None, PARAMS, START, HORIZON, DT)[1].value
    assert abs(vf.at(START.S, START.I) - simulated) < 1e-3 * PARAMS.w


def test_zero_cost_collapse():
    free = PlannerParams(cost_per_death=0.0, chi=0.0)
    vf, pf = solve_value_function(free, GridSpec(n_S=60, n_I=60, n_L=11))
    assert np.max(np.abs(vf.values)) <= 1e-10
    assert np.max(np.abs(pf.lockdown)) <= 1e-10


def test_grid_convergence_under_doubling():
    values = {}
    for n in (51, 101, 201):
        vf, _ = solve_value_function(PARAMS, GridSpec(n_S=n, n_I=n, n_L=21))
        values[n] = vf.values
    first = np.max(np.abs(values[101][::2, ::2] - values[51]))
    second = np.max(np.abs(values[201][::2, ::2] - values[101]))
    assert second < first


# ---------------------------------------------------------------------------
# exact control minimizer
# ---------------------------------------------------------------------------

ROW = 9     # nodes per random value row, I = 0 included


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                       allow_subnormal=False),
       L_bar=st.floats(0.0, 1.0, exclude_min=True),
       tau=st.sampled_from((0, 1)),
       cost_per_death=st.floats(0.0, 200.0),
       S=st.floats(0.0, 1.0, exclude_min=True),
       v_row=arrays(float, ROW, elements=st.floats(0.0, 10.0)),
       v_prev=arrays(float, ROW, elements=st.floats(0.0, 10.0)))
def test_exact_minimizer_is_no_worse_than_a_fine_scan(
        theta, L_bar, tau, cost_per_death, S, v_row, v_prev):
    # At every node the closed-form candidates must reach a Hamiltonian
    # no larger than the best of 20001 evenly spaced controls, whatever
    # the value rows are.
    params = PlannerParams(theta=theta, L_bar=L_bar, tau=tau,
                           cost_per_death=cost_per_death)
    I = np.linspace(0.0, 1.0, ROW)[1:]
    h = 1.0 / (ROW - 1)
    H, L, _, _, _ = _row_minimize(S, I, v_row, v_prev, h, h, params)
    scan = np.linspace(0.0, L_bar, 20001)
    H_scan, _, _, _, _ = _row_minimize(S, I, v_row, v_prev, h, h, params,
                                       controls=scan)
    assert np.all(H <= H_scan)
    assert np.all((L >= 0.0) & (L <= L_bar))


def row_system(rows, n=40, seed=0):
    """Random policy-evaluation inputs for `rows` stacked S-rows of n
    active nodes; about a quarter of the I-drifts are exactly 0."""
    rng = np.random.default_rng(seed)
    shape = (rows, n)
    f_I = np.where(rng.uniform(size=shape) < 0.25, 0.0,
                   rng.uniform(-3.0, 3.0, shape))
    return (0.7, rng.uniform(0.0, 3.0, shape), f_I,
            rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, (rows, n + 1)),
            1.0 / n, 1.0 / n)


def banded_solve(rho, flow_k, fI_k, cost_k, v_prev, hS, hI):
    # The same block-diagonal system through scipy's solve_banded.
    a = flow_k / hS
    bp = np.where(fI_k > 0.0, fI_k, 0.0) / hI
    bp[..., -1] = 0.0
    bm = np.where(fI_k < 0.0, -fI_k, 0.0) / hI
    diag = rho + a + bp + bm
    ab = np.zeros((3,) + diag.shape)
    ab[0, ..., 1:] = -bp[..., :-1]
    ab[1] = diag
    ab[2, ..., :-1] = -bm[..., 1:]
    rhs = cost_k + a * v_prev[..., 1:]
    return solve_banded((1, 1), ab.reshape(3, -1),
                        rhs.reshape(-1)).reshape(diag.shape)


@pytest.mark.parametrize("rows", [1, 4])
def test_row_solve_equals_solve_banded_bit_for_bit(rows):
    for seed in range(5):
        args = row_system(rows, seed=seed)
        got = _row_policy_eval(*args)
        assert got.tobytes() == banded_solve(*args).tobytes()
        one = _row_policy_eval(args[0], *(a[0] for a in args[1:5]),
                               *args[5:])
        assert one.tobytes() == got[0].tobytes()


@pytest.mark.parametrize("which, bad", [
    (1, np.nan), (2, np.inf), (2, -np.inf), (3, np.nan), (4, np.inf)],
    ids=["flow-nan", "drift-inf", "drift-minus-inf", "cost-nan",
         "v-prev-inf"])
def test_row_solve_rejects_non_finite_coefficients(which, bad):
    # scipy refuses the whole poisoned system. The row solve gives the
    # poisoned block NaN and still solves the other block, exactly as
    # that block alone.
    args = list(row_system(2))
    args[which] = args[which].copy()
    args[which][1, 7] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        banded_solve(*args)
    got = _row_policy_eval(*args)
    assert np.isnan(got[1]).all()
    alone = banded_solve(args[0], *(a[:1] for a in args[1:5]), *args[5:])
    assert got[0].tobytes() == alone[0].tobytes()


def test_row_solve_reports_a_singular_system():
    # No discounting, no flow and no drift: the diagonal is zero.
    _, flow, f_I, cost, v_prev, hS, hI = row_system(2)
    args = (0.0, 0.0 * flow, 0.0 * f_I, cost, v_prev, hS, hI)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        banded_solve(*args)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _row_policy_eval(*args)


@pytest.mark.parametrize("first", ["direct", "scipy.linalg"])
def test_row_solve_uses_the_routine_scipy_looks_up(first):
    # The row solve loads gtsv from scipy's _flapack extension module
    # without importing scipy.linalg. scipy.linalg's own lookup must give
    # the very same routine, whichever of the two loads the module first;
    # each order gets a fresh process.
    code = (
        "import numpy as np\n"
        "from epiethics.planner import _gtsv\n"
        + ("_gtsv()\n" if first == "direct" else "") +
        "from scipy.linalg import get_lapack_funcs\n"
        "(gtsv,) = get_lapack_funcs(('gtsv',), (np.empty(0),))\n"
        "print(_gtsv() is gtsv)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# ---------------------------------------------------------------------------
# solved-field invariants on the benchmark grid
# ---------------------------------------------------------------------------

def test_edges_are_pinned(bench):
    vf, pf = bench
    np.testing.assert_array_equal(vf.values[:, 0], 0.0)
    edge = boundary_value_s_zero(vf.grid.i_nodes(), PARAMS)
    assert np.max(np.abs(vf.values[0, :] - edge)) < 1e-10
    np.testing.assert_array_equal(pf.lockdown[:, 0], 0.0)


def test_value_monotone_in_prevalence(bench):
    vf, _ = bench
    assert np.min(np.diff(vf.values, axis=1)) > -1e-9


def test_policy_within_bounds(bench):
    _, pf = bench
    assert pf.lockdown.min() >= 0.0
    assert pf.lockdown.max() <= PARAMS.L_bar


def test_bellman_residual_at_solve_tolerance(bench):
    # The control minimization is exact, so the external residual is
    # bounded by the 1e-8 * w solve tolerance, not by a control grid.
    vf, _ = bench
    assert bellman_residual(vf, PARAMS) < 1e-8 * PARAMS.w
    # Against a 51-point control scan the field is still consistent at
    # that scan's resolution; observed ~2.1e-5 on this grid.
    assert bellman_residual(
        vf, PARAMS, controls=np.linspace(0.0, PARAMS.L_bar, 51)) \
        < 1e-4 * PARAMS.w


def test_lockdown_region_shape(bench):
    # No reason to lock down when almost nobody is susceptible or
    # infected; strong lockdown where both are high.
    _, pf = bench
    assert pf.at(0.05, 0.01) == 0.0
    assert pf.at(0.1, 0.2) == 0.0
    assert pf.at(0.7, 0.01) == 0.0
    assert pf.at(0.7, 0.2) > 0.5
    assert pf.at(0.7, 0.2) > pf.at(0.1, 0.2)


def test_solved_policy_beats_constant_policies(bench):
    vf, pf = bench
    v_opt = simulate_optimal(pf, PARAMS, START, HORIZON, DT)[1].value
    assert abs(vf.at(START.S, START.I) - v_opt) < 5e-3
    for L in (0.0, 0.2, 0.5, PARAMS.L_bar):
        const = PolicyField.constant(vf.grid, L)
        v_const = simulate_optimal(const, PARAMS, START, HORIZON,
                                   DT)[1].value
        assert vf.at(START.S, START.I) <= v_const + 2e-3 * PARAMS.w


# ---------------------------------------------------------------------------
# closed-loop simulation
# ---------------------------------------------------------------------------

def test_simulation_summary_is_coherent(bench):
    _, pf = bench
    traj, summary = simulate_optimal(pf, PARAMS, START, HORIZON, DT)
    assert summary.value == pytest.approx(
        summary.gdp_loss + summary.death_cost, rel=1e-12)
    assert summary.total_deaths == traj.D[-1]
    assert summary.peak_I == traj.I.max()
    assert summary.peak_L == traj.L.max()
    assert 0.0 < summary.lockdown_years <= summary.horizon
    assert summary.lockdown_end <= summary.horizon
    text = summary.as_lines()
    assert any(line.startswith("total_deaths=") for line in text)


def test_uncontrolled_simulation_has_no_lockdown():
    traj, summary = simulate_optimal(None, PARAMS, START, HORIZON, DT)
    np.testing.assert_array_equal(traj.L, 0.0)
    assert summary.gdp_loss == 0.0
    assert summary.lockdown_years == 0.0
    assert summary.lockdown_end == 0.0
    assert summary.peak_L == 0.0


def test_control_reduces_deaths(bench):
    _, pf = bench
    _, with_control = simulate_optimal(pf, PARAMS, START, HORIZON, DT)
    _, without = simulate_optimal(None, PARAMS, START, HORIZON, DT)
    assert with_control.total_deaths < without.total_deaths
    assert with_control.value < without.value


# ---------------------------------------------------------------------------
# validation and failure paths
# ---------------------------------------------------------------------------

def test_convergence_failure_reports_row_and_residual():
    with pytest.raises(SolverConvergenceError) as err:
        solve_value_function(PARAMS, GridSpec(n_S=20, n_I=20, n_L=5),
                             max_iters=1)
    assert err.value.row >= 1
    assert err.value.residual > 0.0


def test_numerical_failure_reports_node(monkeypatch):
    from epiethics import planner as mod

    def poisoned(rho, flow_k, fI_k, cost_k, v_prev, hS, hI):
        out = np.full(cost_k.shape, np.nan)
        return out

    monkeypatch.setattr(mod, "_row_policy_eval", poisoned)
    with pytest.raises(SolverNumericalError) as err:
        solve_value_function(PARAMS, GridSpec(n_S=5, n_I=5, n_L=3))
    assert err.value.node is not None


def test_solver_input_validation():
    with pytest.raises(ValueError, match="controls"):
        solve_value_function(PARAMS, GridSpec(n_S=5, n_I=5, n_L=3),
                             controls=[0.0, 0.9])  # above L_bar
    with pytest.raises(ValueError, match="tol"):
        solve_value_function(PARAMS, GridSpec(n_S=5, n_I=5, n_L=3), tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        solve_value_function(PARAMS, GridSpec(n_S=5, n_I=5, n_L=3),
                             tol=math.nan)
    with pytest.raises(ValueError, match="max_iters"):
        solve_value_function(PARAMS, GridSpec(n_S=5, n_I=5, n_L=3),
                             max_iters=0)
    with pytest.raises(ValueError,
                       match=r"infected share outside \[0, 1\]"):
        boundary_value_s_zero(1.5, PARAMS)


def test_grid_validation():
    with pytest.raises(ValueError, match="n_S and n_I"):
        GridSpec(n_S=2, n_I=10, n_L=5)
    with pytest.raises(ValueError, match="n_L"):
        GridSpec(n_S=10, n_I=10, n_L=1)


def test_field_validation():
    grid = GridSpec(n_S=3, n_I=3, n_L=2)
    with pytest.raises(ValueError, match="negative"):
        ValueField(grid, np.full((3, 3), -1e-6))
    with pytest.raises(ValueError, match="shape"):
        ValueField(grid, np.zeros((3, 4)))
    nan_entry = np.ones((3, 3))
    nan_entry[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite value entries"):
        ValueField(grid, nan_entry)
    with pytest.raises(ValueError, match="outside"):
        PolicyField(grid, np.full((3, 3), 1.5))
    # Roundoff-scale negatives are clamped rather than rejected.
    vf = ValueField(grid, np.full((3, 3), -1e-13))
    assert vf.values.min() == 0.0


@pytest.mark.parametrize("point", [(np.nan, 0.1), (0.5, np.nan)],
                         ids=["S-nan", "I-nan"])
def test_fields_reject_a_nan_point(point):
    grid = GridSpec(n_S=3, n_I=3, n_L=2)
    for field in (ValueField(grid, np.ones((3, 3))),
                  PolicyField.constant(grid, 0.3)):
        with pytest.raises(ValueError, match=r"interpolate at \(S, I\)"):
            field.at(*point)
        # Points outside the unit square are clamped, not rejected.
        assert field.at(np.inf, -np.inf) == field.at(1.0, 0.0)


# ---------------------------------------------------------------------------
# solves that keep no value array
# ---------------------------------------------------------------------------

def test_a_value_less_solve_gives_the_same_policies_and_lines(caplog):
    from epiethics.planner import solve_stacked

    grid = GridSpec(n_S=30, n_I=30, n_L=5)
    # 1.7e308 overflows: its cost fails alone, as it does keeping values.
    costs = (20.0, 0.0, 1.7e308, 40.0)
    runs = []
    for keep in (True, False):
        caplog.clear()
        with caplog.at_level("INFO", logger="epiethics.planner"):
            out = solve_stacked(PARAMS, grid, costs, keep_values=keep)
        runs.append((out, [r.getMessage() for r in caplog.records]))
    (kept, kept_lines), (bare, bare_lines) = runs
    assert bare_lines == kept_lines
    assert len([line for line in bare_lines if "finished" in line]) == 3
    for a, b in zip(kept, bare):
        if isinstance(a, Exception):
            assert type(b) is type(a) and str(b) == str(a)
            continue
        assert b[0] is None and isinstance(a[0], ValueField)
        assert np.array_equal(a[1].lockdown.view(np.uint64),
                              b[1].lockdown.view(np.uint64))
    value, policy = solve_value_function(PARAMS, grid, keep_values=False)
    assert value is None
    assert np.array_equal(policy.lockdown, kept[0][1].lockdown)


def test_a_value_less_solve_keeps_the_floor_check(monkeypatch):
    # A value below -1e-12 is refused with the same error whether or not
    # the solve keeps its value array.
    from epiethics import planner as mod

    real = mod.boundary_value_s_zero
    monkeypatch.setattr(mod, "boundary_value_s_zero",
                        lambda I, params: real(I, params) - 1e-9)
    errors = []
    for keep in (True, False):
        with pytest.raises(ValueError, match="negative value entry") as err:
            solve_value_function(PARAMS, GridSpec(n_S=8, n_I=8, n_L=3),
                                 keep_values=keep)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
