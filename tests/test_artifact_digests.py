"""The data artifacts of the benchmark config, pinned by SHA-256.

Each subcommand runs through cli.main on configs/benchmark.cfg and every
data file it writes must keep the digest recorded here, so a change that
moves any byte of a field, a trajectory, a summary or a sweep fails
tier-1 instead of being found by hand. The run manifests are left out:
they carry the package version and the wall time. The ethics artifacts
are pinned in tests/test_axiom_batch_reference.py.

A change that moves a number on purpose re-records the digests below
and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from epiethics.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "benchmark.cfg"

FIELDS_SHA256 = \
    "fe29824a9d2ca6da788fcabfb15752ca47f88515f3e3a4bdd71623218378f040"
DIGESTS = {
    ("solve",): {
        "value.csv": FIELDS_SHA256,
        "policy.csv": FIELDS_SHA256,
    },
    ("simulate",): {
        "trajectory.csv":
            "97555292ad7dc2e8c7961be6d1dbf0208b71756bb37908490d96f6be99c74b03",
        "summary.txt":
            "87b7e1e140eb220623ccda3e55a3852a18b4d1b82561ea7f754c59cb60b82135",
    },
    ("simulate", "--no-control"): {
        "trajectory.csv":
            "62986312ab55415412f05745ebfff0fb32f8953886da05a503976ae7f190bd98",
        "summary.txt":
            "780ad132a17a06c7573bb5b5eb704f130d90f50a141ae864dad4e5d5ce41dfd0",
    },
    ("sensitivity",): {
        "sensitivity.csv":
            "e6e18adffcc267fee59ecfe7366e44f042f28226b8731d0cf971bae08692c59d",
        "policy_diffs.csv":
            "5bcfe8b1476905e2b34e0447dc15718a2fdb834b2a16c1a60c9e02255715491b",
    },
}


@pytest.mark.parametrize("command", DIGESTS, ids=" ".join)
def test_benchmark_artifacts_keep_their_digests(tmp_path, command):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIG), "--out", str(out),
                 *command]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in DIGESTS[command]}
    assert got == DIGESTS[command]
