"""End-to-end command line behaviour: exit codes, files, determinism."""

import csv
import logging
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

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
        "subcommand", "config_sha256", "seed", "resolved_phi0",
        "resolved_kappa", "resolved_tol", "package_version",
        "python_version", "numpy_version", "scipy_version", "wall_time_s",
    }
    # The auto values behind the defaults: 0.01 * gamma, 0.05 * gamma
    # and 1e-8 * w.
    assert manifest["resolved_phi0"] == fmt(0.18)
    assert manifest["resolved_kappa"] == fmt(0.9)
    assert manifest["resolved_tol"] == fmt(1e-8)


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


def test_ethics_judges_each_property_once(tmp_path, monkeypatch):
    # The property matrix only assembles: its sampled cells are the
    # suite's A4, A5 and A8 reports and one shared negative-expansion
    # check, and its repugnance cells are the repugnant-conclusion
    # searches. One check_axioms call per property and one search per
    # criterion, wherever they are called from.
    import epiethics.cli as cli
    import epiethics.ethics as ethics

    calls = {"check_axioms": 0, "repugnant_witness": 0}
    judged = []
    written = {}

    def counted(name):
        real = getattr(ethics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = real(*args, **kwargs)
            if name == "check_axioms":
                judged.extend(out)
            return out
        return wrapper

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(ethics, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    real_write = cli.write_ethics_csv

    def capture(path, reports, matrix, searches):
        written.update(reports=reports, matrix=matrix)
        real_write(path, reports, matrix, searches)

    monkeypatch.setattr(cli, "write_ethics_csv", capture)
    root = Path(__file__).resolve().parents[1]
    assert main(["--config", str(root / "configs" / "benchmark.cfg"),
                 "--out", str(tmp_path / "out"), "ethics"]) == 0
    assert calls == {"check_axioms": 9, "repugnant_witness": 5}
    # ethics.csv's suite rows are the A1-A8 reports alone.
    assert [r.axiom for r in written["reports"]] == list(ethics.AXIOM_IDS) * 5
    props = ("A4", "A5", "A8", "negative-expansion")

    def key(label, prop, verdict, witness):
        return (label, prop), (verdict, witness.describe() if witness
                               else None)

    cells = dict(key(c.criterion, c.prop, c.verdict, c.witness)
                 for c in written["matrix"].cells if c.prop in props)
    reports = dict(key(r.criterion, r.axiom, r.verdict, r.witness)
                   for r in judged if r.axiom in props)
    assert len(cells) == 20 and cells == reports


def test_every_stored_fail_witness_replays(tmp_path, monkeypatch):
    # Every fail witness an ethics run writes, in the axiom suite, the
    # property matrix and the conclusion searches, fails again when
    # replayed against its criterion.
    import epiethics.cli as cli
    from epiethics.config import parse_config
    from epiethics.ethics import AxiomReport, replay_witness

    written = {}
    real_write = cli.write_ethics_csv

    def capture(path, reports, matrix, searches):
        written.update(reports=reports, matrix=matrix, searches=searches)
        real_write(path, reports, matrix, searches)

    monkeypatch.setattr(cli, "write_ethics_csv", capture)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "ethics"]) == 0
    by_label = {c.label: c for c in parse_config(cfg.read_text()).criteria}
    stored = [(r.criterion, r.axiom, r.witness) for r in written["reports"]
              if r.verdict == "fail"]
    stored += [(c.criterion, c.prop, c.witness)
               for c in written["matrix"].cells if c.verdict == "fail"]
    stored += [(label, name, wit) for label, name, _, wit
               in written["searches"] if wit is not None]
    for label, name, wit in stored:
        report = AxiomReport(name, label, 0, "fail", wit)
        assert replay_witness(by_label[label], report), (label, name)
    kinds = {(label, wit.kind) for label, _, wit in stored}
    assert kinds >= {("CU", "repugnant"), ("TU", "repugnant"),
                     ("CLU(c=1)", "very-sadistic"),
                     ("RDCLU(c=1,rd=0.9)", "very-sadistic"),
                     ("AU", "negative-expansion")}
    assert {"independence", "same-number"} <= {kind for _, kind in kinds}


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


def test_uncreatable_out_dir_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    rc = main(["--config", str(cfg), "--out", str(blocker / "x"), "ethics"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory:")
    assert str(blocker / "x") in err


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
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
               "ethics", "--criterion", "CU:u=pow1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "eta must lie in (0, 1)" in err


def test_nonconvergence_exits_2_without_manifest(tmp_path, capsys):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("n_S=20\nn_I=20\nn_L=5\nmax_iters=1\n")
    # The sweep's baseline solve fails like the others: no row absorbs it.
    for command in ("solve", "simulate", "sensitivity"):
        out = tmp_path / command
        rc = main(["--config", str(cfg), "--out", str(out), command])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "solver failure:")
        assert not (out / "run_manifest").exists()


def test_overflowing_death_price_exits_2_without_traceback(tmp_path):
    # The price is finite, but the row solve overflows at the first node.
    cfg = tmp_path / "dear.cfg"
    cfg.write_text("n_S=20\nn_I=20\ncost_per_death=1.7e308\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "epiethics.cli",
         "--config", str(cfg), "--out", str(out), "solve"],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert ("solver failure: non-finite value at node (1, 1)"
            in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert not (out / "run_manifest").exists()


def test_nonconvergence_names_its_tolerance(tmp_path):
    # tol=auto is 1e-8*w in absolute value units, but the death price
    # sets the value's scale: at w=1e-6 the first row's residual stalls
    # above 1e-14, and the message says so.
    cfg = tmp_path / "poor.cfg"
    cfg.write_text("n_S=20\nn_I=20\nw=1e-6\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "epiethics.cli", "--config", str(cfg),
         "--out", str(out), "solve"],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("solver failure: row 1 did not converge"), last
    assert last.endswith(", tol 1.000e-14)"), last
    assert "Traceback" not in proc.stderr
    assert not (out / "run_manifest").exists()


def test_overflowing_ladder_rung_fails_only_its_row(tmp_path, caplog):
    sweeps = {}
    for name, ladder in (("dear", "0,1.7e308"), ("plain", "0")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"n_S=20\nn_I=20\nhorizon=2\nladder={ladder}\n")
        out = tmp_path / name
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            rc = main(["--config", str(cfg), "--out", str(out),
                       "sensitivity"])
        assert rc == 0
        sweeps[name] = (read_csv(out / "sensitivity.csv"),
                        [r.getMessage() for r in caplog.records
                         if r.levelno == logging.WARNING])
    (header, rows), warnings = sweeps["dear"]
    assert warnings == ["scenario fixed:1.7e+308 failed: "
                        "non-finite value at node (1, 1)"]
    assert rows[-1][0] == "fixed:1.7e+308"
    assert rows[-1][2:] == ["nan"] * (len(header) - 2)
    assert (header, rows[:-1]) == sweeps["plain"][0]
    assert sweeps["plain"][1] == []


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


def test_importing_the_cli_leaves_scipy_linalg_unloaded(tmp_path):
    # Importing scipy.linalg takes about 0.1 s and 20 MB. The row solve
    # loads its one LAPACK routine without it, so neither importing the
    # CLI nor a command that solves may pay for it. Nor may they run
    # scipy's package __init__: the row solve and the manifest's
    # scipy_version load the two scipy files they read by themselves, so
    # scipy is not even in sys.modules after a solve and its manifest.
    cfg = write_cfg(tmp_path)
    code = (
        "import sys\n"
        "from epiethics.cli import main\n"
        "names = ('scipy.linalg', 'scipy')\n"
        "loaded = [[name in sys.modules for name in names]]\n"
        "for cmd in ('solve', 'sensitivity'):\n"
        "    rc = main(['--config', sys.argv[1], '--out', sys.argv[2], cmd])\n"
        "    assert rc == 0, (cmd, rc)\n"
        "    loaded.append([name in sys.modules for name in names])\n"
        "print(loaded)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([[False, False]] * 3)
    manifest = (tmp_path / "out" / "run_manifest").read_text().splitlines()
    assert f"scipy_version={scipy.__version__}" in manifest
