"""End-to-end command line behaviour: exit codes, files, determinism."""

import csv
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from epiethics.cli import main
from epiethics.output import fmt
from epiethics.planner import SolverConvergenceError

FAST_GRID = "n_S=40\nn_I=40\nn_L=11\n"


def write_cfg(tmp_path: Path, extra: str = "") -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(FAST_GRID + extra)
    return path


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def manifest_without_walltime(path: Path):
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("wall_time_s=")
    return lines[:-1]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_fields_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "solve"]) == 0
    header, rows = read_csv(out / "value.csv")
    assert header == ["S", "I", "V", "L"]
    assert len(rows) == 40 * 40
    assert ((out / "policy.csv").read_bytes()
            == (out / "value.csv").read_bytes())
    # numeric cells are decimal notation, never exponential
    for cell in rows[0] + rows[-1]:
        assert "e" not in cell and "E" not in cell
    manifest = dict(
        line.split("=", 1)
        for line in (out / "run_manifest").read_text().splitlines())
    assert manifest["subcommand"] == "solve"
    assert len(manifest["config_sha256"]) == 64
    assert manifest["seed"] == "0"
    assert set(manifest) == {
        "subcommand", "config_sha256", "seed", "package_version",
        "python_version", "numpy_version", "scipy_version", "wall_time_s",
    }


def test_solve_is_byte_identical_across_runs(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), "solve"]) == 0
        outs.append(out)
    a, b = outs
    for fname in ("value.csv", "policy.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()
    assert (manifest_without_walltime(a / "run_manifest")
            == manifest_without_walltime(b / "run_manifest"))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_outputs_trajectory_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, "horizon=3\noutput_stride=10\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t", "S", "I", "R", "D", "L"]
    assert rows[0][0] == fmt(0.0)
    assert rows[-1][0] == fmt(3.0)          # last step always included
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    for key in ("total_deaths", "gdp_loss", "death_cost", "value", "peak_I",
                "peak_L", "lockdown_years", "lockdown_end", "horizon"):
        assert key in summary
    assert 0.0 < float(summary["total_deaths"]) < 1.0


def test_simulate_no_control_skips_the_solve(tmp_path):
    cfg = write_cfg(tmp_path, "horizon=3\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out),
               "simulate", "--no-control"])
    assert rc == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert all(row[5] == fmt(0.0) for row in rows)   # L column stays zero


def test_simulate_tau_override_changes_the_digest(tmp_path):
    cfg = write_cfg(tmp_path, "horizon=2\n")
    digests = {}
    for tau in (0, 1):
        out = tmp_path / f"tau{tau}"
        rc = main(["--config", str(cfg), "--out", str(out),
                   "simulate", "--tau", str(tau), "--no-control"])
        assert rc == 0
        manifest = dict(
            line.split("=", 1)
            for line in (out / "run_manifest").read_text().splitlines())
        digests[tau] = manifest["config_sha256"]
    assert digests[0] != digests[1]


# ---------------------------------------------------------------------------
# ethics
# ---------------------------------------------------------------------------

def test_ethics_outputs_suite_matrix_and_searches(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out),
               "ethics", "--samples", "60"])
    assert rc == 0
    header, rows = read_csv(out / "ethics.csv")
    assert header == ["criterion", "property", "verdict", "witness"]
    axiom_rows = [r for r in rows if r[1].startswith("A")]
    criteria = {r[0] for r in axiom_rows}
    assert criteria == {"CU", "TU", "CLU(c=1)", "AU", "RDCLU(c=1,rd=0.9)"}
    verdicts = {(r[0], r[1]): r[2] for r in axiom_rows}
    assert verdicts[("CU", "A3")] == "pass"
    assert verdicts[("AU", "A4")] == "fail"
    searches = [r for r in rows if r[1].endswith("-conclusion")]
    assert len(searches) == 10
    by_key = {(r[0], r[1]): (r[2], r[3]) for r in searches}
    assert by_key[("TU", "repugnant-conclusion")][0] == "witness-found"
    assert by_key[("CLU(c=1)", "repugnant-conclusion")][0].startswith("none-")
    text = (out / "ethics.txt").read_text()
    assert "# axiom suite" in text
    assert "# property matrix" in text
    assert "# conclusion witness searches" in text


def test_ethics_single_criterion_flag(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out),
               "ethics", "--criterion", "CLU:c=2", "--samples", "40"])
    assert rc == 0
    _, rows = read_csv(out / "ethics.csv")
    assert {r[0] for r in rows} == {"CLU(c=2)"}


def test_ethics_is_byte_identical_for_fixed_seed(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["--config", str(cfg), "--out", str(out), "--seed", "11",
                   "ethics", "--samples", "50"])
        assert rc == 0
        outs.append(out)
    a, b = outs
    assert (a / "ethics.csv").read_bytes() == (b / "ethics.csv").read_bytes()
    assert (a / "ethics.txt").read_bytes() == (b / "ethics.txt").read_bytes()
    assert (manifest_without_walltime(a / "run_manifest")
            == manifest_without_walltime(b / "run_manifest"))


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def test_sensitivity_outputs(tmp_path):
    cfg = write_cfg(
        tmp_path, "criteria=CU,AU\nladder=0,20\nhorizon=10\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "sensitivity"])
    assert rc == 0
    header, rows = read_csv(out / "sensitivity.csv")
    assert header == ["criterion", "cost_per_death", "peak_L",
                      "lockdown_years", "deaths", "gdp_loss", "value"]
    labels = [r[0] for r in rows]
    assert labels == ["benchmark", "CU", "AU", "fixed:0", "fixed:20"]
    by_label = {r[0]: r for r in rows}
    assert by_label["CU"][1:] == by_label["benchmark"][1:]
    assert by_label["fixed:0"][2] == fmt(0.0)        # no lockdown at zero cost
    dheader, drows = read_csv(out / "policy_diffs.csv")
    assert dheader == ["criterion_a", "criterion_b", "policy_supnorm_diff"]
    assert len(drows) == 1 and {drows[0][0], drows[0][1]} == {"CU", "AU"}


def test_sensitivity_warns_once_per_failed_row(tmp_path, monkeypatch,
                                               caplog):
    from epiethics import sensitivity as mod

    real = mod.solve_stacked

    def flaky(params, grid, costs, **kw):
        # The cost 0 fails to converge.
        return [SolverConvergenceError("induced failure", residual=1.0, row=1)
                if cost == 0.0 else out
                for cost, out in zip(costs, real(params, grid, costs, **kw))]

    monkeypatch.setattr(mod, "solve_stacked", flaky)
    cfg = write_cfg(tmp_path, "criteria=CU\nladder=0,20,0\nhorizon=2\n")
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        rc = main(["--config", str(cfg), "--out", str(out), "sensitivity"])
    assert rc == 0
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert warnings == ["scenario fixed:0 failed: induced failure"] * 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "absent.cfg"), "solve"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: cannot read")


def test_invalid_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("theta=1.5\n")
    rc = main(["--config", str(cfg), "solve"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "theta" in err


def test_bad_overrides_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["--config", str(cfg), "--seed", "-1", "solve"]) == 1
    assert "seed" in capsys.readouterr().err
    assert main(["--config", str(cfg), "--out", "", "solve"]) == 1
    assert "out_dir" in capsys.readouterr().err
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
               "ethics", "--criterion", "XU"])
    assert rc == 1
    assert "XU" in capsys.readouterr().err


def test_nonconvergence_exits_2_without_manifest(tmp_path, capsys):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("n_S=20\nn_I=20\nn_L=5\nmax_iters=1\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "solve"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "solver failure:")
    assert not (out / "run_manifest").exists()


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_installed_entry_point_runs(tmp_path):
    cfg = write_cfg(tmp_path, "horizon=2\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "epiethics.cli", "--config", str(cfg),
         "--out", str(out), "simulate", "--no-control"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectory.csv").exists()
    assert (out / "run_manifest").exists()


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    # Importing scipy.linalg takes about 0.1 s; only a solve needs it, so
    # ethics and simulate --no-control must not pay for it.
    code = "import sys, epiethics.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
