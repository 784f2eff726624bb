"""Artifacts across numpy's SIMD dispatch levels.

numpy picks its SIMD kernels at import from the CPU, and the last bits
of some results, such as array powers, follow those kernels. The
package promises bit-identical values on one dispatch level and
identical artifacts across levels. numpy's NPY_DISABLE_CPU_FEATURES
switches dispatch targets off for one process, so this runs ethics and
sensitivity on a small config with power-transform criteria twice, at
the host's level and with every target above numpy's baseline off, and
compares every artifact, the run manifests without their wall times.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = ("n_S=40\nn_I=40\nn_L=11\nsamples=100\n"
          "criteria=CU:u=pow0.3,TU:u=pow0.7,CLU:c=1:u=pow0.5,AU:u=pow0.3,"
          "RDCLU:c=1:rd=0.9:u=pow0.7\n")
# Prints the dispatch targets the process has on, then runs both
# subcommands, each into its own directory.
RUN = """
import sys
from pathlib import Path
from epiethics.cli import main
sys.path.insert(0, sys.argv[3])
from test_dispatch_levels import targets_above_baseline
print(" ".join(targets_above_baseline()))
for command in ("ethics", "sensitivity"):
    out = Path(sys.argv[2]) / command
    if main(["--config", sys.argv[1], "--out", str(out), command]):
        sys.exit(1)
"""


def targets_above_baseline() -> list:
    # The dispatch targets this CPU supports; each lies above the
    # baseline numpy was built for.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:             # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(t)]


def run(cfg: Path, out: Path, env: dict):
    """The dispatch targets the run had on, and its artifacts by path."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(cfg), str(out), str(HERE)],
        env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            lines = path.read_bytes().splitlines()
            files[str(path.relative_to(out))] = [
                line for line in lines if not (path.name == "run_manifest"
                                               and line.startswith(
                                                   b"wall_time_s="))]
    return done.stdout.decode().split(), files


def test_artifacts_match_across_dispatch_levels(tmp_path):
    targets = targets_above_baseline()
    if not targets:
        pytest.skip(f"numpy {np.__version__} dispatches to no target above "
                    f"its baseline on this CPU: no second level to run")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    native_on, native = run(cfg, tmp_path / "native", {})
    lowered_on, lowered = run(cfg, tmp_path / "baseline",
                              {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    assert (native_on, lowered_on) == (targets, [])
    assert sorted(native) == [
        "ethics/ethics.csv", "ethics/ethics.txt", "ethics/run_manifest",
        "sensitivity/policy_diffs.csv", "sensitivity/run_manifest",
        "sensitivity/sensitivity.csv"]
    for name in native:
        assert native[name] == lowered[name], (name, targets)
