"""The data artifacts of the benchmark config, pinned by SHA-256.

Each subcommand runs through cli.main on configs/benchmark.cfg and every
data file it writes must keep the digest recorded here, so a change that
moves any byte of a field, a trajectory, a summary or a sweep fails
tier-1 instead of being found by hand. Of each run manifest only the
config_sha256 line is pinned: the rest carry the package and library
versions and the wall time. The ethics artifacts are pinned in
tests/test_axiom_batch_reference.py. The raw bits of the six fields the
sweep solves are pinned here as well.

A change that moves a number on purpose re-records the digests below
and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from epiethics import parse_config
from epiethics.cli import main
from epiethics.planner import solve_stacked

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "benchmark.cfg"

# The config_sha256 of the benchmark config, the same in every command's
# run manifest.
CONFIG_SHA256 = \
    "82f26fe4138bae885be00a14203a1ab4900768c8cf80ecd1500bfd81dc70edda"
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


# The sweep's six distinct costs in first-use order, and the SHA-256 of
# each one's solved V then L, as raw float64 bytes, cost after cost.
# sensitivity.csv rounds to nine digits, so only this pins every bit of
# the fields of the costs other than the benchmark's 20.
SWEEP_COSTS = [20.0, 6.666666666666664, 18.0, 0.0, 10.0, 40.0]
SWEEP_FIELDS_SHA256 = \
    "1abffcb0dc110e6f233ee9398ae3bc02900bab056f58ff8efb0bc8fb8065ef28"


@pytest.mark.parametrize("command", DIGESTS, ids=" ".join)
def test_benchmark_artifacts_keep_their_digests(tmp_path, command):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIG), "--out", str(out),
                 *command]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in DIGESTS[command]}
    assert got == DIGESTS[command]
    manifest = (out / "run_manifest").read_text(encoding="utf-8")
    assert f"config_sha256={CONFIG_SHA256}" in manifest.splitlines()


def test_sweep_fields_keep_their_digest():
    cfg = parse_config(CONFIG.read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for value, policy in solve_stacked(cfg.params, cfg.grid, SWEEP_COSTS):
        digest.update(value.values.tobytes())
        digest.update(policy.lockdown.tobytes())
    assert digest.hexdigest() == SWEEP_FIELDS_SHA256
