"""The exact minimizer's five candidates, built in order, against a sort.

planner._row_candidates builds the five candidate lockdowns of each node
already in ascending order: 0 and L_bar at the ends, and L_c and the two
branch vertices, each capped at L_bar, put in order by a min/max network.
The oracle below is the construction it replaced, copied in unchanged
apart from its name: it clips all five to [0, L_bar] and sorts them.
No candidate is NaN or -0.0, so the two must agree byte for byte, also
at ties (DI == DS, curv == a), at infinite and overflowing derivatives,
on the first and last S-rows and with L_c below 0 or above L_bar.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from epiethics import PlannerParams
from epiethics.epidemic import _lockdown_loss
from epiethics.planner import GridSpec, _mesh, _row_candidates

_, I_NODES, H_S, H_I = _mesh(GridSpec())
EXTREMES = [math.inf, -math.inf, 1e308, -1e308, math.nan, 0.0, -0.0]


def ref_row_candidates(S, I, DS, DIp, DIm, params):
    theta = params.theta
    L_c = (1.0 - math.sqrt(params.gamma / (params.beta_contact * S))) / theta
    a = _lockdown_loss(S, I, 1.0, params)
    scale = 2.0 * params.beta_contact * S * I * theta
    cand = np.empty(DS.shape + (5,))
    cand[..., 0] = 0.0
    cand[..., 1] = params.L_bar
    cand[..., 2] = L_c
    for col, DI in ((3, DIp), (4, DIm)):
        curv = scale * (DI - DS)
        above = curv > a
        cand[..., col] = np.where(
            above, (1.0 - a / np.where(above, curv, 1.0)) / theta, 0.0)
    np.clip(cand, 0.0, params.L_bar, out=cand)
    cand.sort(axis=-1)
    return cand


def row_terms(S, I, params):
    # The oracle's unclipped L_c, and per node its a and scale.
    theta = params.theta
    L_c = (1.0 - math.sqrt(params.gamma / (params.beta_contact * S))) / theta
    return (L_c, _lockdown_loss(S, I, 1.0, params),
            2.0 * params.beta_contact * S * I * theta)


def vertex_tie(a, scale):
    # A DI with scale * (DI - 0.0) == a exactly, or None if none of the
    # three floats nearest a / scale gives one.
    x = a / scale
    for DI in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)):
        if scale * DI == a:
            return DI
    return None


def assert_same_candidates(S, I, DS, DIp, DIm, params):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _row_candidates(S, I, DS, DIp, DIm, params)
        want = ref_row_candidates(S, I, DS, DIp, DIm, params)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def rows(draw):
    params = PlannerParams(
        beta_contact=draw(st.sampled_from([36.0, 200.0])),
        L_bar=draw(st.sampled_from([0.7, 0.3, 1.0])),
        tau=draw(st.sampled_from([0, 1])))
    K = draw(st.sampled_from([1, 3]))
    n = draw(st.integers(1, 6))
    S = draw(st.one_of(st.just(H_S), st.just(1.0), st.floats(H_S, 1.0)))
    I = np.array(draw(st.lists(st.floats(H_I, 1.0), min_size=n,
                               max_size=n)))
    derivative = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(EXTREMES))
    DS, DIp, DIm = (
        np.array(draw(st.lists(derivative, min_size=K * n,
                               max_size=K * n))).reshape(K, n)
        for _ in range(3))
    _, a, scale = row_terms(S, I, params)
    ties = st.sampled_from(["none", "DIp == DS", "DIm == DS", "curv == a"])
    for k in range(K):
        for j in range(n):
            tie = draw(ties)
            if tie == "DIp == DS":
                DIp[k, j] = DS[k, j]
            elif tie == "DIm == DS":
                DIm[k, j] = DS[k, j]
            elif tie == "curv == a":
                DI = vertex_tie(a[j], scale[j])
                if DI is not None:
                    DS[k, j] = 0.0
                    DIp[k, j] = DI
    return S, I, DS, DIp, DIm, params


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows())
def test_built_order_equals_the_sorted_candidates(row):
    assert_same_candidates(*row)


def test_ties_at_the_vertex_threshold():
    # On a whole S-row, each node's DIp branch sits exactly at curv == a
    # wherever a float allows it, and its DIm branch at DIm == DS.
    params = PlannerParams()
    S = 0.5
    I = I_NODES[1:]
    _, a, scale = row_terms(S, I, params)
    DIp = np.array([vertex_tie(x, s) or x / s for x, s in zip(a, scale)])
    DS = np.zeros((1, I.size))
    tied = scale * (DIp - DS[0]) == a
    assert tied.sum() > I.size // 2
    assert_same_candidates(S, I, DS, DIp[None], DS.copy(), params)


def test_lockdown_threshold_outside_the_control_range():
    # L_c < 0 on the first row of the benchmark; L_c > L_bar on the last
    # row when L_bar is small.
    params = PlannerParams(L_bar=0.3)
    I = I_NODES[1:]
    derivative = np.linspace(-1e3, 1e3, 3 * I.size).reshape(3, I.size)
    L_c = [row_terms(S, I, params)[0] for S in (H_S, 1.0)]
    assert L_c[0] < 0.0 and L_c[1] > params.L_bar
    for S in (H_S, 1.0):
        assert_same_candidates(S, I, derivative, derivative[::-1],
                               derivative[:, ::-1], params)
