"""Correctness checks on the artifacts of one CLI invocation.

Three things are checked on every invocation: the exit code, that each
artifact is byte-identical to the first repetition of the same
subcommand in the run (the run manifest's wall_time_s line excepted),
and that the headline numbers match the reference values recorded in
reference.json. SHA-256 digests against the reference are information
only: `artifacts_changed` counts them so that a change of any byte shows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from epiethics import GridSpec, ValueField

MANIFEST = "run_manifest"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance on headline numbers. It sits above the change an
# exact control minimizer makes to deaths (about 2e-5 relative) and
# below the change from refining the grid from 300^2 to 600^2 (about
# 5e-4 relative on V(S0, I0)), so solver rewrites pass and a different
# discretization does not.
REL_TOL = 1e-4
ABS_TOL = 1e-9

# Subcommands whose artifacts depend on --seed. Their digests, and those
# of every run manifest (it records the seed), are compared with the
# reference only at the seed the reference was recorded with.
SEEDED_COMMANDS = frozenset({"ethics"})

# Sensitivity columns compared with the reference. peak_L, lockdown_years
# and gdp_loss are only required to be finite: lockdown_years counts
# whole days, so a correct solver change can move it by 1/365.
SWEEP_COMPARED = ("cost_per_death", "deaths", "value")


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == MANIFEST:
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"wall_time_s="))
    return hashlib.sha256(data).hexdigest()


def artifact_digests(out_dir: Path) -> dict:
    """SHA-256 of every file the invocation wrote, keyed by file name."""
    return {p.name: file_digest(p) for p in sorted(out_dir.iterdir())
            if p.is_file()}


def _summary_numbers(path: Path) -> dict:
    fields = dict(line.split("=", 1) for line in
                  path.read_text().splitlines() if "=" in line)
    return {"deaths": float(fields["total_deaths"]),
            "value": float(fields["value"])}


def _value_at_start(path: Path, cfg) -> float:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    grid = GridSpec(cfg.grid.n_S, cfg.grid.n_I, cfg.grid.n_L)
    field = ValueField(grid, table[:, 2].reshape(grid.n_S, grid.n_I))
    return field.at(cfg.S0, cfg.I0)


def _ethics_verdicts(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [row[:3] for row in rows[1:]]


def _sweep_numbers(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for row in rows:
        label = row.pop("criterion")
        out[label] = {k: float(v) for k, v in row.items()}
    return out


def headline(subcommand: str, out_dir: Path, cfg) -> dict:
    """Headline numbers of one invocation, read back from its artifacts."""
    if subcommand == "solve":
        return {"V(S0,I0)": _value_at_start(out_dir / "value.csv", cfg)}
    if subcommand == "simulate":
        return _summary_numbers(out_dir / "summary.txt")
    if subcommand == "ethics":
        return {"verdicts": _ethics_verdicts(out_dir / "ethics.csv")}
    if subcommand == "sensitivity":
        return {"rows": _sweep_numbers(out_dir / "sensitivity.csv")}
    raise ValueError(f"unknown subcommand {subcommand!r}")


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def headline_problems(got: dict, want: dict) -> list:
    """Differences between measured and reference headline numbers."""
    problems = []
    for key, ref in want.items():
        if key not in got:
            problems.append(f"{key}: missing")
        elif key == "verdicts":
            if got[key] != ref:
                bad = [g for g, r in zip(got[key], ref) if g != r]
                problems.append(f"verdicts differ from reference: "
                                f"{len(got[key])} rows vs {len(ref)}, "
                                f"first differing {bad[:1]}")
        elif key == "rows":
            problems += _sweep_problems(got[key], ref)
        elif not (math.isfinite(got[key]) and _close(got[key], ref)):
            problems.append(f"{key}={got[key]!r}, reference {ref!r}")
    return problems


def _sweep_problems(got: dict, want: dict) -> list:
    problems = []
    if sorted(got) != sorted(want):
        problems.append(f"sweep rows {sorted(got)} != reference "
                        f"{sorted(want)}")
    for label, row in got.items():
        nonfinite = [k for k, v in row.items() if not math.isfinite(v)]
        if nonfinite:
            problems.append(f"sweep row {label}: non-finite {nonfinite}")
            continue
        for col in SWEEP_COMPARED:
            ref = want.get(label, {}).get(col)
            if ref is not None and not _close(row[col], ref):
                problems.append(f"sweep row {label}: {col}={row[col]!r}, "
                                f"reference {ref!r}")
    return problems


def repetition_problems(digests: dict, first: dict) -> list:
    """Artifacts that differ from the first repetition of a subcommand."""
    if set(digests) != set(first):
        return [f"artifact set {sorted(digests)} != first repetition "
                f"{sorted(first)}"]
    return [f"{name} differs from the first repetition"
            for name in sorted(digests) if digests[name] != first[name]]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def changed_artifacts(digests: dict, reference: dict, seed: int,
                      reference_seed: int) -> list:
    """Artifacts whose SHA-256 differs from the recorded reference.

    digests and reference map "<command>/<file>" to a digest.
    """
    changed = []
    for key, digest in sorted(digests.items()):
        command, name = key.split("/", 1)
        seeded = (command.split()[0] in SEEDED_COMMANDS
                  or name == MANIFEST)
        if seeded and seed != reference_seed:
            continue
        if reference.get(key) != digest:
            changed.append(key)
    return changed
