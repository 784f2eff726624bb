"""The A7 bisection, stopped at its fixed point, against all 200 steps.

The egalitarian-equivalence checker bisects the uniform value for a
level z. Each step depends only on the interval (z_lo, z_hi), so once a
step leaves both ends where they were, every later step repeats it and
the checker stops. The reference below is the checker with a fixed 200
steps; verdict, notes and witness, the raw float z included, must come
out the same.
"""

import numpy as np
import pytest

from epiethics.ethics import (Allocation, Ordering, UtilityTransform,
                              WelfareCriterion, Witness, _alloc,
                              _rand_levels, _uniform_value, check_axiom,
                              compare, criterion_value, default_criteria)

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
