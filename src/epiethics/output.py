"""File emission: CSV and flat key=value text artifacts.

All numeric CSV cells are printed by fmt: decimal notation with at
most nine significant digits, via numpy's positional formatter, where a
value below 1 in magnitude is padded to 8 decimals. The field and
trajectory CSVs, the large ones, print whole chunks of rows at once with
fmt_many, which gives fmt's strings. Every file is written with plain
"\\n" line endings so repeated runs are byte-identical (the run
manifest's wall_time_s line is the one documented exception).
"""

from __future__ import annotations

import csv
import hashlib
import math
import platform
from dataclasses import replace
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .config import RunConfig, serialize_config
from .epidemic import Trajectory
from .ethics import AxiomReport, PropertyMatrix, Witness
from .planner import PolicyField, ScenarioSummary, ValueField, resolved_tol
from .sensitivity import SensitivityReport

__all__ = [
    "config_digest",
    "fmt",
    "fmt_many",
    "write_ethics_csv",
    "write_ethics_text",
    "write_fields_csv",
    "write_manifest",
    "write_policy_diffs_csv",
    "write_sensitivity_csv",
    "write_summary",
    "write_trajectory_csv",
]


def fmt(x) -> str:
    """Decimal notation, never exponential, via numpy's Dragon4.

    At most nine significant digits. A value below 1 in magnitude is
    padded with zeros to at least 8 decimals (0.7 -> 0.70000000,
    0.02 -> 0.0200000000); trailing zeros left by rounding up to nine
    digits are dropped down to that padding (1e-12 -> 0.000000000001).
    """
    x = float(x)
    if not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return np.format_float_positional(x, precision=9, unique=False,
                                      fractional=False)


# Powers of ten, exact or correctly rounded, for scaling |x| to 9 digits.
_POW10 = np.array([float(10 ** k) for k in range(300)])
# A value whose scaled digits y lie this close to a rounding tie, or to
# a whole number ending in 0, goes through fmt: the scaling's rounding
# error, a few 1e-7, could move y across.
_MARGIN = 1e-6


def _spec_table(sep: str) -> np.ndarray:
    # Index d >= 0: "%.{d}f"; index -1: "%s", for a string made by fmt.
    return np.array([f"%.{d}f{sep}" for d in range(len(_POW10))]
                    + [f"%s{sep}"], dtype=object)


_COMMA_SPECS = _spec_table(",")
_LINE_SPECS = _spec_table("\n")


def _bulk_parts(a: np.ndarray):
    """Decimals and %-argument that print each value of a 1-D float64
    array as fmt does.

    For finite 1e-280 <= |x| < 1e7, with e the decimal exponent of |x|
    rounded to nine significant digits, y = |x|*10**(8-e) and
    r = rint(y), fmt(x) == "%.*f" % (d, x) with d = 8-e; but when r ends
    in z zeros and was rounded up (y < r), Dragon4 drops those digits
    and d = max(8-e-z, 8-max(e, 0)). Every other value, and any whose y
    lies within _MARGIN of a tie, or of an r ending in 0, is formatted
    by fmt once per distinct bit pattern and gets decimals -1.
    """
    ax = np.abs(a)
    easy = (ax >= 1e-280) & (ax < 1e7)
    ax = np.where(easy, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    y = ax * _POW10[8 - e]
    r = np.rint(y)
    # Whether rounding carries to the next power of ten is decided at
    # this first scale, so a tie here is hard whatever e turns out to be.
    tie = np.abs(y - np.floor(y) - 0.5) <= _MARGIN
    # log10 may put e one off next to a power of ten.
    for off, step in ((r >= 1e9, 1), (r < 1e8, -1)):
        e[off] += step
        y[off] = ax[off] * _POW10[8 - e[off]]
        r[off] = np.rint(y[off])
    tie |= np.abs(y - np.floor(y) - 0.5) <= _MARGIN
    digits = r.astype(np.int64)
    zero_end = digits % 10 == 0
    easy &= (r >= 1e8) & (r < 1e9) & ~tie
    easy &= ~(zero_end & (np.abs(y - r) <= _MARGIN))
    d = 8 - e
    cut = np.flatnonzero(easy & zero_end & (y < r))
    if cut.size:
        zeros = sum(digits[cut] % 10 ** k == 0 for k in range(1, 9))
        ec = e[cut]
        d[cut] = np.maximum(8 - ec - zeros, 8 - np.maximum(ec, 0))
    args = a.astype(object)
    hard = np.flatnonzero(~easy)
    d[hard] = -1
    if hard.size:
        # Grouped by bit pattern: -0.0 and 0.0, or two NaNs, print apart.
        bits, inverse = np.unique(a[hard].view(np.int64),
                                  return_inverse=True)
        texts = np.array([fmt(x) for x in bits.view(np.float64)],
                         dtype=object)
        args[hard] = texts[inverse]
    return d, args


def _csv_lines(columns) -> str:
    """CSV lines, one per row of the equal-length 1-D columns.

    A float column is printed as fmt prints it; an object column holds
    ready text. The whole block is one %-format.
    """
    specs = np.empty((len(columns[0]), len(columns)), dtype=object)
    args = np.empty_like(specs)
    for j, col in enumerate(columns):
        table = _LINE_SPECS if j == len(columns) - 1 else _COMMA_SPECS
        if col.dtype == object:
            specs[:, j], args[:, j] = table[-1], col
        else:
            d, args[:, j] = _bulk_parts(col)
            specs[:, j] = table[d]
    return "".join(specs.ravel().tolist()) % tuple(args.ravel().tolist())


def fmt_many(a) -> list[str]:
    """[fmt(x) for x in a], string for string, formatted in bulk."""
    a = np.ravel(np.asarray(a, dtype=np.float64))
    return _csv_lines([a]).split("\n")[:-1] if a.size else []


# Lines formatted and written at a time: enough to amortise the
# per-block work, few enough to keep the block's strings small.
_CHUNK_LINES = 9600


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _strided_indices(n: int, stride: int):
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def write_trajectory_csv(path, traj: Trajectory, stride: int = 1):
    idx = np.array(_strided_indices(len(traj), stride))
    with open(path, "w", newline="") as fh:
        fh.write("t,S,I,R,D,L\n")
        for lo in range(0, idx.size, _CHUNK_LINES):
            k = idx[lo:lo + _CHUNK_LINES]
            fh.write(_csv_lines([traj.t[k], traj.S[k], traj.I[k],
                                 traj.R[k], traj.D[k], traj.L[k]]))


def write_fields_csv(path, value: ValueField, policy: PolicyField):
    # The S and I labels repeat across the grid, so each is formatted once.
    s_labels = np.array(fmt_many(value.grid.s_nodes()), dtype=object)
    i_labels = np.array(fmt_many(value.grid.i_nodes()), dtype=object)
    n_i = i_labels.size
    rows = max(1, _CHUNK_LINES // n_i)
    with open(path, "w", newline="") as fh:
        fh.write("S,I,V,L\n")
        for lo in range(0, s_labels.size, rows):
            s = s_labels[lo:lo + rows]
            fh.write(_csv_lines([np.repeat(s, n_i),
                                 np.tile(i_labels, s.size),
                                 value.values[lo:lo + rows].ravel(),
                                 policy.lockdown[lo:lo + rows].ravel()]))


def write_summary(path, summary: ScenarioSummary):
    with open(path, "w", newline="") as fh:
        for line in summary.as_lines():
            fh.write(line + "\n")


def _witness_text(witness: Optional[Witness]) -> str:
    return witness.describe() if witness is not None else ""


def write_ethics_csv(path, reports, matrix: PropertyMatrix, searches):
    """criterion,property,verdict,witness rows.

    reports: AxiomReport list (the A1-A8 suite); matrix rows cover the
    non-axiom properties; searches: (criterion, property, verdict,
    witness) tuples from the conclusion witness hunts.
    """
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["criterion", "property", "verdict", "witness"])
        for rep in reports:
            w.writerow([rep.criterion, rep.axiom, rep.verdict,
                        _witness_text(rep.witness)])
        for cell in matrix.cells:
            if cell.prop in ("A4", "A5", "A8"):
                continue   # already present via the axiom suite
            w.writerow([cell.criterion, cell.prop, cell.verdict,
                        _witness_text(cell.witness)])
        for criterion, prop, verdict, witness in searches:
            w.writerow([criterion, prop, verdict, _witness_text(witness)])


def write_ethics_text(path, reports, matrix: PropertyMatrix, searches):
    with open(path, "w", newline="") as fh:
        fh.write("# axiom suite\n")
        for rep in reports:
            fh.write(rep.line() + "\n")
        fh.write("\n# property matrix (computed verdicts beside the "
                 "published classification; disagreements are shown, "
                 "not resolved)\n")
        fh.write(matrix.to_text() + "\n")
        fh.write("\n# conclusion witness searches\n")
        for criterion, prop, verdict, witness in searches:
            wit = f" witness: {witness.describe()}" if witness else ""
            fh.write(f"{criterion} | {prop} | {verdict}{wit}\n")


def write_sensitivity_csv(path, report: SensitivityReport):
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["criterion", "cost_per_death", "peak_L",
                    "lockdown_years", "deaths", "gdp_loss", "value"])
        for row in report.all_rows():
            w.writerow([row.label, fmt(row.cost_per_death), fmt(row.peak_L),
                        fmt(row.lockdown_years), fmt(row.deaths),
                        fmt(row.gdp_loss), fmt(row.value)])


def write_policy_diffs_csv(path, report: SensitivityReport):
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["criterion_a", "criterion_b", "policy_supnorm_diff"])
        for a, b, diff in report.policy_diffs:
            w.writerow([a, b, fmt(diff)])


def config_digest(cfg: RunConfig) -> str:
    # The digest covers the inputs that determine results; the output
    # directory is not one of them, so runs into different directories
    # still produce identical manifests (modulo wall time).
    canonical = replace(cfg, out_dir="out")
    return hashlib.sha256(serialize_config(canonical).encode()).hexdigest()


def write_manifest(path, subcommand: str, cfg: RunConfig,
                   wall_time_s: float):
    """key=value provenance block; wall_time_s varies between runs.

    The resolved_* lines state the values in effect behind the keys a
    config may leave to auto: phi0, kappa and the solver's tol.
    """
    lines = [
        f"subcommand={subcommand}",
        f"config_sha256={config_digest(cfg)}",
        f"seed={cfg.seed}",
        f"resolved_phi0={fmt(cfg.params.phi0)}",
        f"resolved_kappa={fmt(cfg.params.kappa)}",
        f"resolved_tol={fmt(resolved_tol(cfg.params, cfg.tol))}",
        f"package_version={__version__}",
        f"python_version={platform.python_version()}",
        f"numpy_version={np.__version__}",
        f"scipy_version={scipy.__version__}",
        f"wall_time_s={wall_time_s:.3f}",
    ]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
