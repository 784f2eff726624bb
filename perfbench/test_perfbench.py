"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest perfbench -q

They use fake command-line processes and hand-built spans, so they take
a second, not a benchmark run.
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
from epiethics import parse_config  # noqa: E402
from spans import (Span, TracedPass, Tracer, pass_metrics,  # noqa: E402
                   self_times)
from workloads import END_TO_END, PER_LAYER, ROOT, WORKLOADS  # noqa: E402

SWEEP = WORKLOADS["sweep"]


def _reference():
    return checks.load_reference()


def _sweep_run(tmp_path, seed=0):
    ref = _reference()
    cfg = parse_config((ROOT / SWEEP.config).read_text())
    return harness.Run(SWEEP, seed, tmp_path, cfg,
                       ref["workloads"]["sweep"], ref["seed"])


def _fake_cli(monkeypatch, rows, calls):
    """Replace the child process with one that writes `rows` as
    sensitivity.csv into the --out directory."""
    def run_child(argv, stderr_path):
        calls.append(argv)
        stderr_path.write_text("")
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        with open(out / "sensitivity.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["criterion", "cost_per_death", "peak_L",
                        "lockdown_years", "deaths", "gdp_loss", "value"])
            for label, row in rows.items():
                w.writerow([label] + [repr(row[k]) for k in (
                    "cost_per_death", "peak_L", "lockdown_years", "deaths",
                    "gdp_loss", "value")])
        (out / "policy_diffs.csv").write_text("criterion_a,criterion_b\n")
        (out / "run_manifest").write_text(
            f"seed={argv[argv.index('--seed') + 1]}\nwall_time_s=1.0\n")
        return harness.Child(0, 1.0, 50.0)
    monkeypatch.setattr(harness, "run_child", run_child)


def _reference_rows():
    rows = _reference()["workloads"]["sweep"]["headline"]["sensitivity"]
    return {label: dict(row) for label, row in rows["rows"].items()}


def test_reference_rows_pass(tmp_path, monkeypatch):
    calls = []
    _fake_cli(monkeypatch, _reference_rows(), calls)
    run = _sweep_run(tmp_path)
    run.invoke(SWEEP.commands[0])
    run.invoke(SWEEP.commands[0])
    assert (run.attempted, run.failed) == (2, 0)


def test_corrupted_artifact_is_a_failure(tmp_path, monkeypatch):
    rows = _reference_rows()
    calls = []
    _fake_cli(monkeypatch, rows, calls)
    run = _sweep_run(tmp_path)
    run.invoke(SWEEP.commands[0])
    rows["fixed:40"]["gdp_loss"] *= 1.5     # a column the tolerance skips
    run.invoke(SWEEP.commands[0])
    assert (run.attempted, run.failed) == (2, 1)
    assert "differs from the first repetition" in \
        run.invocations[1].problems[0]


def test_nan_sweep_row_is_a_failure(tmp_path, monkeypatch):
    rows = _reference_rows()
    rows["AU"]["peak_L"] = math.nan
    _fake_cli(monkeypatch, rows, [])
    run = _sweep_run(tmp_path)
    run.invoke(SWEEP.commands[0])
    assert run.failed == 1
    assert "non-finite" in run.invocations[0].problems[0]


def test_nonzero_exit_is_a_failure(tmp_path, monkeypatch):
    def run_child(argv, stderr_path):
        stderr_path.write_text("solver failure")
        return harness.Child(2, 1.0, 50.0)
    monkeypatch.setattr(harness, "run_child", run_child)
    run = _sweep_run(tmp_path)
    run.invoke(SWEEP.commands[0])
    assert run.failed == 1


def test_seed_reaches_the_cli(tmp_path, monkeypatch):
    calls = []
    _fake_cli(monkeypatch, _reference_rows(), calls)
    run = _sweep_run(tmp_path, seed=7)
    run.invoke(SWEEP.commands[0])
    argv = calls[0]
    assert argv[argv.index("--seed") + 1] == "7"
    assert argv.index("--seed") < argv.index("sensitivity")


@pytest.mark.parametrize("rel, ok", [(2e-5, True), (5e-4, False)])
def test_headline_tolerance(rel, ok):
    want = {"V(S0,I0)": 0.198464}
    got = {"V(S0,I0)": 0.198464 * (1 + rel)}
    assert (checks.headline_problems(got, want) == []) is ok


def test_ethics_verdicts_must_match_exactly():
    want = {"verdicts": [["AU", "A4", "fail"], ["CU", "A4", "pass"]]}
    got = {"verdicts": [["AU", "A4", "pass"], ["CU", "A4", "pass"]]}
    assert checks.headline_problems(got, want)
    assert not checks.headline_problems(want, want)


def test_self_time_arithmetic():
    # root [0, 10] with children a [1, 4], b [3, 6] (overlapping a) and
    # c [8, 12] (running past the root); a has a child g [2, 3].
    spans = [Span("root", 0.0, 10.0, None, "t"),
             Span("a", 1.0, 4.0, 0, "t"),
             Span("g", 2.0, 3.0, 1, "t"),
             Span("b", 3.0, 6.0, 0, "t"),
             Span("c", 8.0, 12.0, 0, "t")]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_pass_metrics_names():
    tracer = Tracer("t")
    tracer.spans = [Span("solve", 0.0, 5.0, None, "t"),
                    Span("planner.solve", 0.0, 1.0, 0, "t"),
                    Span("output.fields_csv", 1.0, 2.5, 0, "t"),
                    Span("output.fields_csv", 2.5, 4.0, 0, "t"),
                    Span("ethics", 5.0, 9.0, None, "t"),
                    Span("ethics.check_axiom.A1", 5.0, 6.0, 4, "t"),
                    Span("ethics.check_axiom.A6", 6.0, 6.5, 4, "t"),
                    Span("ethics.check_axiom.A1", 6.5, 8.0, 4, "t")]
    tracer.counts["planner.solve_calls"] = 1
    metrics = pass_metrics(tracer, ("solve", "ethics"))
    assert metrics == {"solve.self_s": 1.0, "planner.solve_s": 1.0,
                       "output.fields_csv_s": 3.0, "planner.solve_calls": 1,
                       "ethics.self_s": 1.0,
                       "ethics.check_axiom.A1_s": 2.5,
                       "ethics.check_axiom.A6_s": 0.5,
                       "ethics.axiom_suite_s": 3.0}


def test_traced_pass_runs_the_command_line(tmp_path):
    # A small ethics run through cli.main: each of its check_axiom calls
    # gets a span under the root span, and the artifacts are written.
    config = tmp_path / "small.cfg"
    config.write_text("criteria=CU\nsamples=20\n")
    tracer = Tracer("t")
    status, root = TracedPass(tracer, config, 3).run(
        "ethics", ("ethics",), tmp_path / "out")
    assert status == 0 and root.name == "ethics"
    axioms = [s.name for s in tracer.spans
              if s.name.startswith("ethics.check_axiom.")]
    assert axioms == [f"ethics.check_axiom.A{k}" for k in range(1, 9)]
    assert tracer.counts["ethics.samples"] == 8 * 20
    assert (tmp_path / "out" / "ethics.csv").is_file()
    assert "seed=3" in (tmp_path / "out" / "run_manifest").read_text()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == \
            table
