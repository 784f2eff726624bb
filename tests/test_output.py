"""fmt against numpy's finiteness tests, on every kind of double.

fmt tests finiteness with math.isfinite and math.isnan on the Python
float; the reference below tests it with np.isfinite and np.isnan, as
fmt once did. Both must print every double the same way: normal and
subnormal values, signed zeros, NaN and both infinities.

fmt_many, the bulk formatter behind the field and trajectory CSVs, must
print every array as [fmt(x) for x in array] does, and the chunked
writers must write the bytes a per-row fmt writer writes.

config_digest hashes through CPython's built-in SHA-256 module and must
give hashlib's digest.
"""

import csv
import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from epiethics import output, parse_config, serialize_config
from epiethics.epidemic import EpidemicState, PlannerParams
from epiethics.output import (_strided_indices, fmt, fmt_many,
                              write_fields_csv, write_trajectory_csv)
from epiethics.planner import (GridSpec, ValueField, simulate_optimal,
                               solve_value_function)


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


LARGEST_SUBNORMAL = 2.2250738585072009e-308


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=arrays(np.float64, st.integers(0, 64),
                elements=st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True)))
@example(np.array([0.0, -0.0, -0.0, 0.0]))
@example(np.array([math.nan, -math.nan, math.inf, -math.inf]))
@example(np.array([5e-324, -5e-324, LARGEST_SUBNORMAL,
                   1.7976931348623157e308, -1.7976931348623157e308]))
@example(np.array([0.5, 0.7, -0.7, 2.0 ** -9, 0.09999999999, 0.0999999995,
                   0.9999999995, 19.99999999999, 9999999.995, 1e7,
                   123456789.0]))
@example(np.array([1e-12, 1e-300, -1e-12]))
@example(np.array([0.98, 0.02, 9.9999999995, 9999999.9999, 0.3]))
def test_fmt_many_equals_fmt_per_value(a):
    assert fmt_many(a) == [fmt(x) for x in a]


@pytest.mark.parametrize("seed", range(3))
def test_fmt_many_equals_fmt_on_random_bit_patterns(seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        20_000, dtype=np.int64, endpoint=True)
    a = bits.view(np.float64)
    assert fmt_many(a) == [fmt(x) for x in a]


@pytest.mark.parametrize("seed", range(3))
def test_fmt_many_equals_fmt_next_to_ties_and_carries(seed):
    # Nine-digit values, halfway points between them and powers of ten,
    # each moved a few ulps either way: where the bulk rule's floating
    # scale is least sure of the digits fmt prints.
    rng = np.random.default_rng(seed)
    n = 20_000
    digits = rng.integers(10 ** 8, 10 ** 9, n).astype(float)
    round_to = 10.0 ** rng.integers(0, 9, n)
    digits = np.where(rng.random(n) < 0.5,
                      np.floor(digits / round_to) * round_to, digits)
    scale = 10.0 ** rng.integers(-20, -1, n)
    base = np.concatenate([digits * scale, (digits + 0.5) * scale,
                           10.0 ** rng.integers(-280, 7, n)])
    steps = rng.integers(-8, 9, base.size)
    a = base.copy()
    for _ in range(8):
        a = np.where(steps > 0, np.nextafter(a, np.inf),
                     np.where(steps < 0, np.nextafter(a, -np.inf), a))
        steps -= np.sign(steps)
    a *= rng.choice([-1.0, 1.0], a.size)
    assert fmt_many(a) == [fmt(x) for x in a]


def test_fmt_many_takes_any_shape():
    assert fmt_many(np.array([[0.5, 1.0], [2.0, -0.25]])) \
        == ["0.50000000", "1.00000000", "2.00000000", "-0.25000000"]
    assert fmt_many(0.7) == ["0.70000000"]
    assert fmt_many([]) == []


def reference_fields_csv(path, value, policy):
    # The per-row writer the bulk writer replaced.
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["S", "I", "V", "L"])
        for i, s in enumerate(value.grid.s_nodes()):
            for j, i_node in enumerate(value.grid.i_nodes()):
                w.writerow([fmt(s), fmt(i_node), fmt(value.values[i, j]),
                            fmt(policy.lockdown[i, j])])


FIELD_GRID = GridSpec(n_S=40, n_I=37, n_L=11)


@pytest.fixture(scope="module")
def fields_40x37():
    return solve_value_function(PlannerParams(), FIELD_GRID)


@pytest.mark.parametrize("chunk_lines", [1, 3 * 37, 32 * 37 + 5,
                                         output._CHUNK_LINES])
def test_fields_csv_equals_the_per_row_writer(tmp_path, monkeypatch,
                                              fields_40x37, chunk_lines):
    # 1, 3 and 32 S-rows per chunk leave a short last chunk on n_S = 40;
    # the default chunk holds the whole grid.
    monkeypatch.setattr(output, "_CHUNK_LINES", chunk_lines)
    rng = np.random.default_rng(7)
    mixed = rng.uniform(0.0, 2.0, FIELD_GRID.n_S * FIELD_GRID.n_I) \
        * 10.0 ** rng.integers(-15, 6, FIELD_GRID.n_S * FIELD_GRID.n_I)
    mixed[::5] = 0.0
    for value, policy in (fields_40x37,
                          (ValueField(FIELD_GRID, mixed.reshape(40, 37)),
                           fields_40x37[1])):
        write_fields_csv(tmp_path / "bulk.csv", value, policy)
        reference_fields_csv(tmp_path / "ref.csv", value, policy)
        assert (tmp_path / "bulk.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()


@pytest.fixture(scope="module")
def short_trajectory():
    return simulate_optimal(None, PlannerParams(),
                            EpidemicState(S=0.98, I=0.02), 1.0, 1.0 / 365.0)[0]


@pytest.mark.parametrize("chunk_lines", [16, output._CHUNK_LINES])
def test_strided_trajectory_csv_holds_the_stride_1_rows(
        tmp_path, monkeypatch, short_trajectory, chunk_lines):
    monkeypatch.setattr(output, "_CHUNK_LINES", chunk_lines)
    traj = short_trajectory
    write_trajectory_csv(tmp_path / "full.csv", traj, 1)
    lines = (tmp_path / "full.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    assert lines[0] == "t,S,I,R,D,L\n"
    assert lines[1:] == [",".join(fmt(col[k]) for col in (
        traj.t, traj.S, traj.I, traj.R, traj.D, traj.L)) + "\n"
        for k in range(len(traj))]
    for stride in (1, 7, 10, len(traj) - 1):
        write_trajectory_csv(tmp_path / "strided.csv", traj, stride)
        kept = [lines[0]] + [lines[1 + k]
                             for k in _strided_indices(len(traj), stride)]
        assert (tmp_path / "strided.csv").read_text(encoding="utf-8") \
            == "".join(kept)


# The default config, the benchmark config and five power-transform
# criteria written into another directory.
DIGEST_CONFIGS = {
    "default": "",
    "benchmark": (Path(__file__).resolve().parents[1] / "configs"
                  / "benchmark.cfg").read_text(encoding="utf-8"),
    "five-pow": ("criteria=CU:u=pow0.5,TU:u=pow0.25,CLU:c=1:u=pow0.9,"
                 "AU:u=pow0.5,RDCLU:c=1:rd=0.9:u=pow0.75\n"
                 "out_dir=runs/pow\n"),
}


@pytest.mark.parametrize("text", DIGEST_CONFIGS.values(),
                         ids=DIGEST_CONFIGS.keys())
def test_config_digest_is_hashlib_sha256(text):
    # config_digest hashes through CPython's built-in SHA-256 module; its
    # digest must be hashlib's, of the config with out_dir set to "out".
    cfg = parse_config(text)
    canonical = serialize_config(replace(cfg, out_dir="out"))
    assert (output.config_digest(cfg)
            == hashlib.sha256(canonical.encode()).hexdigest())
