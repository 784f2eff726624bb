"""fmt against numpy's finiteness tests, on every kind of double.

fmt tests finiteness with math.isfinite and math.isnan on the Python
float; the reference below tests it with np.isfinite and np.isnan, as
fmt once did. Both must print every double the same way: normal and
subnormal values, signed zeros, NaN and both infinities.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from epiethics.output import fmt


def numpy_fmt(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        return "nan" if np.isnan(x) else ("inf" if x > 0 else "-inf")
    return np.format_float_positional(x, precision=9, unique=False,
                                      fractional=False)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True,
                   allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072009e-308)     # largest subnormal
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(1.7976931348623157e308)
def test_fmt_equals_the_numpy_form(x):
    assert fmt(x) == numpy_fmt(x)
    assert fmt(np.float64(x)) == numpy_fmt(x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.floats(-1.0, 1.0, allow_subnormal=True))
def test_fmt_equals_the_numpy_form_near_zero(x):
    # Most grid and trajectory values lie in [-1, 1].
    assert fmt(x) == numpy_fmt(x)
