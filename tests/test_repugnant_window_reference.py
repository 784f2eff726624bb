"""The windowed repugnant-conclusion scan against a whole-range scan.

repugnant_witness scans candidate sizes upward in doubling windows
[1], [2, 3], [4, 7], ... and stops at the first window with a strict
hit. The reference below evaluates every size 1..n_max at once, as the
scan did before. Each size gets the same elementwise numbers either
way, so the first hit, and with it the whole witness, its float values
included, must come out the same. The windows also keep the scan's
memory small: a hit at n = 1,001 reads 1,023 sizes, at most 512 at a
time, where the whole-range scan reads all 100,000 at once.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from epiethics.ethics import (Allocation, Ordering, UtilityTransform,
                              WelfareCriterion, Witness, _orders,
                              _uniform_value, compare, criterion_value,
                              repugnant_witness)

N_MAXES = (1, 2, 3, 1023, 1024, 1025, 100_000)
# Sizes at and next to the window edges, where a hit is placed.
EDGES = sorted({m for k in range(17) for m in (2 ** k - 1, 2 ** k, 2 ** k + 1)
                if 1 <= m <= 100_000} | {100_000})


def ref_repugnant_witness(crit, base, epsilon, n_max):
    vb = criterion_value(base, crit)
    ns = np.arange(1, n_max + 1)
    strict = _orders(_uniform_value(epsilon, ns, crit), vb) == 1
    if not strict.any():
        return None
    n_hit = int(ns[int(np.argmax(strict))])
    for n in range(max(1, n_hit - 2), min(n_max, n_hit + 2) + 1):
        clones = Allocation.uniform(epsilon, n)
        if compare(clones, base, crit) is Ordering.StrictlyBetter:
            return Witness("repugnant",
                           {"n": n, "epsilon": epsilon, "base": base,
                            "clones": clones,
                            "clone_value": criterion_value(clones, crit),
                            "base_value": vb})
    return None


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_same_witness(got, want):
    if want is None:
        assert got is None
        return
    assert got.kind == want.kind
    assert got.payload.keys() == want.payload.keys()
    for key, value in want.payload.items():
        if isinstance(value, float):
            assert bits(got.payload[key]) == bits(value), key
        else:
            assert got.payload[key] == value, key


def base_level(crit, epsilon, target):
    # A one-person base whose value the clones pass near size target:
    # the gain u(x) - u(c) that n = target - 1/2 copies of epsilon reach.
    gain = crit.u(epsilon) - crit.u(crit.c)
    if crit.kind == "RDCLU":
        b = crit.rank_discount
        gain = gain * (1.0 - b ** (target - 0.5)) / (1.0 - b)
    elif crit.kind != "AU":
        gain = gain * (target - 0.5)
    y = gain + crit.u(crit.c)
    if crit.u.kind == "power":
        y = np.sign(y) * abs(y) ** (1.0 / crit.u.eta)
    return float(y)


@st.composite
def scans(draw):
    # A criterion, epsilon, the size the hit is placed at and n_max; the
    # placed size is at most n_max + 1, so most scans find a hit.
    kind = draw(st.sampled_from(("CU", "TU", "CLU", "AU", "RDCLU")))
    c = draw(st.floats(0.0, 2.0)) if kind in ("CLU", "RDCLU") else 0.0
    # Near 1 the rank weights decay slowly enough for late hits.
    rd = (draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.999, 1.0, exclude_max=True))) if kind == "RDCLU" else 0.0)
    eta = draw(st.sampled_from((None, 0.25, 0.5, 0.9)))
    u = UtilityTransform("power", eta=eta) if eta else UtilityTransform()
    n_max = draw(st.sampled_from(N_MAXES))
    target = draw(st.one_of(
        st.sampled_from([n for n in EDGES if n <= n_max + 1]),
        st.integers(1, n_max + 1)))
    return (WelfareCriterion(kind, c=c, rank_discount=rd, u=u),
            draw(st.floats(0.01, 4.0)), target, n_max)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scan=scans())
# A total-utility base of (n - 1/2) * epsilon puts the first hit at n,
# here at window edges and one past n_max.
@example(scan=(WelfareCriterion("TU"), 0.1, 2, 3))
@example(scan=(WelfareCriterion("TU"), 0.1, 4, 3))
@example(scan=(WelfareCriterion("TU"), 0.1, 1023, 1023))
@example(scan=(WelfareCriterion("TU"), 0.1, 1024, 1023))
@example(scan=(WelfareCriterion("TU"), 0.1, 1024, 1024))
@example(scan=(WelfareCriterion("TU"), 0.1, 1025, 1025))
@example(scan=(WelfareCriterion("TU"), 0.1, 65536, 100_000))
def test_window_scan_matches_whole_range_scan(scan):
    crit, epsilon, target, n_max = scan
    level = base_level(crit, epsilon, target)
    # The base must lie above epsilon; otherwise place it well above.
    if not epsilon < level < 1e300:
        level = 2.0 * epsilon
    base = Allocation.of(level)
    assert_same_witness(repugnant_witness(crit, base, epsilon, n_max),
                        ref_repugnant_witness(crit, base, epsilon, n_max))


def peak_mb(crit, n_max):
    base = Allocation.of(100.0)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        repugnant_witness(crit, base, 0.1, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start) / 1e6


def test_window_scan_memory_stays_small():
    # CU hits at n = 1,001, in the window [512, 1023]; AU never hits, and
    # its largest window, [65536, 100000], holds 34,465 sizes.
    assert repugnant_witness(WelfareCriterion("CU"), Allocation.of(100.0),
                             0.1, 100_000).payload["n"] == 1001
    assert peak_mb(WelfareCriterion("CU"), 100_000) < 0.1
    assert peak_mb(WelfareCriterion("AU"), 100_000) < 2.0
