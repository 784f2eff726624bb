"""File emission: CSV and flat key=value text artifacts.

All numeric CSV cells are printed in decimal notation with nine
significant digits via numpy's positional formatter, and every file is
written with plain "\\n" line endings so repeated runs are
byte-identical (the run manifest's wall_time_s line is the one
documented exception).
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
    """Decimal notation, nine significant digits, never exponential."""
    x = float(x)
    if not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return np.format_float_positional(x, precision=9, unique=False,
                                      fractional=False)


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _strided_indices(n: int, stride: int):
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def write_trajectory_csv(path, traj: Trajectory, stride: int = 1):
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["t", "S", "I", "R", "D", "L"])
        for k in _strided_indices(len(traj), stride):
            w.writerow([fmt(traj.t[k]), fmt(traj.S[k]), fmt(traj.I[k]),
                        fmt(traj.R[k]), fmt(traj.D[k]), fmt(traj.L[k])])


def write_fields_csv(path, value: ValueField, policy: PolicyField):
    # The S and I labels repeat across the grid, so each is formatted once.
    s_labels = [fmt(s) for s in value.grid.s_nodes()]
    i_labels = [fmt(i) for i in value.grid.i_nodes()]
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["S", "I", "V", "L"])
        for s_label, v_row, l_row in zip(s_labels, value.values.tolist(),
                                         policy.lockdown.tolist()):
            for i_label, v, L in zip(i_labels, v_row, l_row):
                w.writerow([s_label, i_label, fmt(v), fmt(L)])


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
