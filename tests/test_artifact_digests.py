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
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from epiethics import output, parse_config
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


def test_config_digest_falls_back_to_hashlib():
    # Without CPython's built-in SHA-256 modules the manifest hashes with
    # hashlib's, and the digest stays the same.
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from pathlib import Path\n"
        "from epiethics import output, parse_config\n"
        "cfg = parse_config(Path(sys.argv[1]).read_text(encoding='utf-8'))\n"
        "print(output._sha256.__name__, output.config_digest(cfg))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(CONFIG)],
                          capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["openssl_sha256", CONFIG_SHA256]


def sha2_interpreters():
    # Each CPython interpreter that might be 3.12 or later: the pyenv
    # versions, and python3.12 and up on PATH. Some may not run at all.
    found = []
    root = os.environ.get("PYENV_ROOT")
    if root:
        found += sorted(str(p) for p in
                        Path(root).glob("versions/*/bin/python3"))
    found += [shutil.which(f"python3.{minor}") for minor in range(12, 20)]
    return list(dict.fromkeys(p for p in found if p))


def test_config_digest_is_the_same_under_sha2(monkeypatch):
    # The suite's interpreter may hash with _sha256; the package's first
    # choice, _sha2 of CPython 3.12+, is checked on the exact bytes
    # config_digest hashes, in every such interpreter that starts. The
    # package itself need not import there.
    fed = []
    monkeypatch.setattr(output, "_sha256",
                        lambda data: fed.append(data) or hashlib.sha256(data))
    cfg = parse_config(CONFIG.read_text(encoding="utf-8"))
    assert output.config_digest(cfg) == CONFIG_SHA256
    (text,) = fed
    code = ("import sys\n"
            "if sys.version_info < (3, 12):\n"
            "    sys.exit(3)\n"
            "from _sha2 import sha256\n"
            "print(sha256(sys.stdin.buffer.read()).hexdigest())\n")
    hashed, skipped = 0, []
    for exe in sha2_interpreters():
        try:
            proc = subprocess.run([exe, "-c", code], input=text,
                                  capture_output=True, timeout=60)
        except OSError as err:
            skipped.append(f"{exe}: {err}")
            continue
        if proc.returncode == 3:
            continue                  # older than 3.12: no _sha2
        if proc.returncode != 0:
            reason = proc.stderr.decode(errors="replace").splitlines()
            skipped.append(f"{exe}: {(reason or ['no output'])[-1]}")
            continue
        assert proc.stdout.decode().split() == [CONFIG_SHA256], exe
        hashed += 1
    if not hashed:
        pytest.skip("no CPython 3.12+ interpreter runs here; "
                    + "; ".join(skipped or ["none found"]))


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
