"""The A7 bisection, stopped at its fixed point, against all 200 steps.

The egalitarian-equivalence checker bisects the uniform value for a
level z. Each step depends only on the interval (z_lo, z_hi), so once a
step leaves both ends where they were, every later step repeats it and
the checker stops. The reference below is the checker with a fixed 200
steps; verdict, notes and witness, the raw float z included, must come
out the same.

check_axioms judges A7 for all its criteria on one stream of tries and
bisects each criterion's (pair, size) lanes together; the tests at the
end check that each criterion's report is still the reference's for it
alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiethics.ethics import (Allocation, Ordering, UtilityTransform,
                              WelfareCriterion, Witness, _alloc,
                              _rand_levels, _uniform_value, check_axiom,
                              check_axioms, compare, criterion_value,
                              default_criteria)

LO, HI, POP_CAP = -10.0, 10.0, 8
SEEDS = range(10)
SAMPLES = 1000
CRITERIA = default_criteria() + (
    WelfareCriterion("RDCLU", rank_discount=0.5),
    WelfareCriterion("CU", u=UtilityTransform("power", eta=0.5)),
)


def ref_egalitarian_equivalence(crit, rng, samples, lo, hi, pop_cap):
    found_all = True
    example = None
    for _ in range(min(samples, 50)):
        x = y = None
        for _ in range(200):
            cx = _alloc(_rand_levels(rng, pop_cap, lo, hi))
            cy = _alloc(_rand_levels(rng, pop_cap, lo, hi))
            if compare(cx, cy, crit) is Ordering.StrictlyBetter:
                x, y = cx, cy
                break
        if x is None:
            continue
        target = 0.5 * (criterion_value(x, crit) + criterion_value(y, crit))
        hit = None
        span = hi - lo
        for n in range(pop_cap, 0, -1):
            z_lo, z_hi = lo - 2.0 * span, hi + 2.0 * span
            if not (_uniform_value(z_lo, n, crit) <= target
                    <= _uniform_value(z_hi, n, crit)):
                continue
            for _ in range(200):
                z_mid = 0.5 * (z_lo + z_hi)
                if _uniform_value(z_mid, n, crit) < target:
                    z_lo = z_mid
                else:
                    z_hi = z_mid
            z = 0.5 * (z_lo + z_hi)
            zn = Allocation.uniform(z, n)
            if (compare(zn, y, crit) is Ordering.StrictlyBetter
                    and compare(zn, x, crit) is Ordering.StrictlyWorse):
                hit = (z, n)
                break
        if hit is None:
            found_all = False
            break
        example = Witness("egalitarian-equivalent",
                          {"x": x, "y": y, "z": hit[0], "n": hit[1]})
    if found_all:
        return "pass", example
    return "not-found-within-budget", None


@pytest.mark.parametrize("crit", CRITERIA, ids=lambda c: c.label)
def test_a7_stops_at_the_fixed_point_with_the_same_witness(crit):
    for seed in SEEDS:
        rep = check_axiom(crit, "A7", samples=SAMPLES, seed=seed,
                          pop_cap=POP_CAP, level_range=(LO, HI))
        verdict, witness = ref_egalitarian_equivalence(
            crit, np.random.default_rng(seed), SAMPLES, LO, HI, POP_CAP)
        assert rep.verdict == verdict
        assert rep.notes == f"existential search with population cap {POP_CAP}"
        if witness is None:
            assert rep.witness is None
            continue
        assert rep.witness.kind == witness.kind
        assert rep.witness.payload["z"].hex() == witness.payload["z"].hex()
        assert rep.witness.payload == witness.payload


# One check_axioms call judges every criterion on one stream of tries;
# each report must still be the reference's for that criterion alone.
# The power transform at eta = 0.3 is one where numpy's power and the
# C library's pow round many levels differently; the reference values
# one level at a time and the checker whole arrays, so they agree only
# if both take numpy's power.
SHARED = CRITERIA + (
    WelfareCriterion("CLU", c=1.0, u=UtilityTransform("power", eta=0.3)),)


def report_key(verdict, notes, witness):
    if witness is None:
        return verdict, notes, None
    return (verdict, notes, witness.kind,
            dict(witness.payload, z=witness.payload["z"].hex()))


def reference_report(crit, samples, seed, pop_cap, level_range):
    verdict, witness = ref_egalitarian_equivalence(
        crit, np.random.default_rng(seed), samples, *level_range, pop_cap)
    return report_key(verdict,
                      f"existential search with population cap {pop_cap}",
                      witness)


def shared_reports(criteria, samples, seed, pop_cap, level_range):
    return [report_key(rep.verdict, rep.notes, rep.witness)
            for rep in check_axioms(criteria, "A7", samples, seed, pop_cap,
                                    level_range)]


@pytest.mark.parametrize("samples, pop_cap, level_range", [
    # CU, TU, AU: no try is strict, so each slot uses up its 200 tries.
    (SAMPLES, POP_CAP, (0.0, 1e-13)),
    (7, POP_CAP, (0.0, 2e-13)),   # CU, TU: about 1 try in 800 is strict
    (1, POP_CAP, (LO, HI)),
    (7, POP_CAP, (LO, HI)),
    (SAMPLES, 2, (LO, HI)),
    (SAMPLES, 5, (LO, HI)),
], ids=["indifferent", "rare-strict", "samples-1", "samples-7", "pop-cap-2",
        "pop-cap-5"])
def test_one_call_for_all_criteria_equals_each_reference(samples, pop_cap,
                                                         level_range):
    for seed in range(3):
        assert shared_reports(SHARED, samples, seed, pop_cap, level_range) \
            == [reference_report(crit, samples, seed, pop_cap, level_range)
                for crit in SHARED], seed


def test_criteria_in_reverse_order_and_repeated():
    order = SHARED[::-1] + SHARED[:2] + SHARED[3:4]
    for seed in range(3):
        assert shared_reports(order, 300, seed, POP_CAP, (LO, HI)) \
            == [reference_report(crit, 300, seed, POP_CAP, (LO, HI))
                for crit in order], seed


@settings(max_examples=25, deadline=None, derandomize=True)
@given(crits=st.lists(st.sampled_from(SHARED), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 120),
       pop_cap=st.integers(2, 9))
def test_several_criteria_equal_one_criterion_checks(crits, seed, samples,
                                                     pop_cap):
    kwargs = dict(samples=samples, seed=seed, pop_cap=pop_cap)
    assert check_axioms(crits, "A7", **kwargs) \
        == [check_axiom(crit, "A7", **kwargs) for crit in crits]
