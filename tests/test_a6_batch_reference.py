"""The batched A6 search against the case-by-case search it replaced.

The critical-level checker draws all samples of a candidate level at
once and judges them in one batch. When a sample fails, it rewinds the
generator and draws again only the samples up to and including that
one, so the next candidate starts from the generator state the
case-by-case search would leave. The reference below is that search:
verdict, notes, witness text and the generator state after the call
must all come out the same.
"""

import numpy as np
import pytest

from epiethics.ethics import (Allocation, Ordering, WelfareCriterion,
                              Witness, _check_critical_level, compare,
                              default_criteria)

LO, HI, POP_CAP = -10.0, 10.0, 8
SEEDS = range(20)
SAMPLES = (1, 5, 300, 1000)
CRITERIA = default_criteria() + (
    WelfareCriterion("RDCLU", c=1.0, rank_discount=0.5),
    WelfareCriterion("CLU", c=2.0),
    WelfareCriterion("CLU", c=15.0),    # above the level range
)


def ref_critical_level(crit, rng, samples, lo, hi, pop_cap, failed_at=None):
    candidates = []
    if crit.kind in ("CLU", "RDCLU"):
        candidates.append(crit.c)
    candidates += [0.0, 1.0, 0.5 * (lo + hi), hi]
    seen = set()
    for c in candidates:
        if c < 0.0 or c in seen or c < lo:
            continue
        seen.add(c)
        tested = 0
        ok = True
        for _ in range(samples):
            n = int(rng.integers(1, pop_cap + 1))
            x = Allocation(tuple(rng.uniform(lo, min(c, hi), n)))
            tested += 1
            if compare(x.append(c), x, crit) is not Ordering.Indifferent:
                ok = False
                if failed_at is not None:
                    failed_at.append(tested - 1)
                break
        if ok and tested >= min(10, samples):
            return "pass", Witness("critical-level", {"c": c}), \
                f"constructed critical level c={c:g}"
    return "not-found-within-budget", None, ""


def outcome(check, crit, seed, samples, lo, hi, **kwargs):
    rng = np.random.default_rng(seed)
    verdict, witness, notes = check(crit, rng, samples, lo, hi, POP_CAP,
                                    **kwargs)
    return (verdict, notes, witness.describe() if witness else None,
            rng.bit_generator.state)


@pytest.mark.parametrize("crit", CRITERIA, ids=lambda c: c.label)
def test_batched_a6_matches_case_by_case_search(crit):
    for samples in SAMPLES:
        for seed in SEEDS:
            assert outcome(_check_critical_level, crit, seed, samples,
                           LO, HI) \
                == outcome(ref_critical_level, crit, seed, samples,
                           LO, HI), (samples, seed)


def test_batched_a6_replays_a_failure_after_the_first_sample():
    # On levels 2..10 a critical level of 1 is out of range, so the
    # search moves on to 6 and 10. With a rank discount of 0.01 the
    # appended top rank weighs 0.01**(n+1): below the tie tolerance from
    # n = 6 on, so a candidate can pass several samples before failing.
    crit = WelfareCriterion("RDCLU", c=1.0, rank_discount=0.01)
    failed_at = []
    for samples in SAMPLES:
        for seed in SEEDS:
            assert outcome(_check_critical_level, crit, seed, samples,
                           2.0, 10.0) \
                == outcome(ref_critical_level, crit, seed, samples,
                           2.0, 10.0, failed_at=failed_at), (samples, seed)
    assert max(failed_at) > 0
