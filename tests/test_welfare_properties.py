"""Property-based tests of the welfare orders.

_criterion_values evaluates many allocations at once, stacking rows of
equal length; the axiom checkers rely on it giving exactly the value
criterion_value gives one allocation at a time. Every supported order
also satisfies Suppes-Sen dominance (A3), with or without a power
transform, on any drawn allocation.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiethics.ethics import (Allocation, Ordering, UtilityTransform,
                              WelfareCriterion, _criterion_values,
                              _uniform_value, compare, criterion_value,
                              default_criteria)

CRITERIA = default_criteria() + (
    WelfareCriterion("RDCLU", rank_discount=0.5),
    WelfareCriterion("CU", u=UtilityTransform("power", eta=0.5)),
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)
levels = st.floats(-100.0, 100.0)
populations = st.lists(levels, min_size=1, max_size=16)
criteria = st.sampled_from(CRITERIA)


@PROPERTY
@given(rows=st.lists(populations, min_size=1, max_size=40), crit=criteria)
def test_batch_equals_one_at_a_time_bit_for_bit(rows, crit):
    got = _criterion_values(rows, crit)
    assert got.shape == (len(rows),)
    for row, value in zip(rows, got):
        one = criterion_value(Allocation(tuple(row)), crit)
        assert np.float64(value).tobytes() == np.float64(one).tobytes()


@PROPERTY
@given(data=st.data(), row=populations, crit=criteria)
def test_value_ignores_the_order_of_the_population(data, row, crit):
    shuffled = data.draw(st.permutations(row))
    value = criterion_value(Allocation(tuple(row)), crit)
    assert criterion_value(Allocation(tuple(shuffled)), crit) == value
    assert np.all(_criterion_values([row, shuffled], crit) == value)


@PROPERTY
@given(level=levels, n=st.integers(1, 1000), crit=criteria)
def test_closed_form_uniform_value_matches_direct_evaluation(level, n, crit):
    # The closed form may differ from the sorted sum by a few ulps.
    direct = criterion_value(Allocation.uniform(level, n), crit)
    assert _uniform_value(level, n, crit) == pytest.approx(direct, rel=1e-12)


@PROPERTY
@given(data=st.data(),
       y=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
       crit=st.sampled_from(default_criteria()),
       eta=st.one_of(st.none(), st.floats(0.1, 0.9)))
def test_rank_dominance_is_strictly_preferred(data, y, crit, eta):
    # A3: x raises every rank of y (the k-th lowest level of x exceeds
    # the k-th lowest of y), in any order; x must be strictly better.
    if eta is not None:
        crit = replace(crit, u=UtilityTransform("power", eta=eta))
    bumps = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(y),
                               max_size=len(y)))
    x = data.draw(st.permutations(
        [v + b for v, b in zip(sorted(y), bumps)]))
    assert compare(Allocation(tuple(x)), Allocation(tuple(y)), crit) \
        is Ordering.StrictlyBetter
