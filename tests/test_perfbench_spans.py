"""The benchmark's traced pass against the plain command line.

perfbench/spans.py runs the command line in process with the names it
calls swapped for traced wrappers, and reads the first solved value
field back for its Bellman-residual probe. The simulate subcommand and
the sweep solve without keeping value arrays, so this runs the traced
pass over the quickstart order and over the sweep on a small config and
checks that it still finishes, writes what the plain command line
writes, byte for byte, and counts the solves it wraps. spans.py is only
read, never changed.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from epiethics.cli import main

ROOT = Path(__file__).resolve().parents[1]
QUICKSTART = (("solve", ("solve",)), ("simulate", ("simulate",)),
              ("simulate_nocontrol", ("simulate", "--no-control")),
              ("ethics", ("ethics",)))
CONFIG = "n_S=40\nn_I=40\nn_L=11\nsamples=60\n"


@pytest.fixture(scope="module")
def spans():
    name = "perfbench_spans"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def artifacts(out: Path) -> dict:
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    manifest = files["run_manifest"].splitlines()
    assert manifest[-1].startswith(b"wall_time_s=")
    files["run_manifest"] = manifest[:-1]
    return files


def traced_matches_plain(spans, tmp_path, commands):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    tracer = spans.Tracer("test")
    traced = spans.TracedPass(tracer, cfg, 0)
    for stem, argv in commands:
        plain = tmp_path / "plain" / stem
        assert main(["--config", str(cfg), "--out", str(plain), "--seed",
                     "0", *argv]) == 0
        out = tmp_path / "traced" / stem
        status, root = traced.run(stem, argv, out)
        assert status == 0 and root is not None and root.name == stem
        assert artifacts(out) == artifacts(plain), stem
    traced.probes()
    return tracer


def test_traced_quickstart_pass_matches_the_command_line(spans, tmp_path):
    tracer = traced_matches_plain(spans, tmp_path, QUICKSTART)
    # solve and simulate each solve once; the residual probe reads the
    # field of the first, which keeps its values.
    assert tracer.counts["planner.solve_calls"] == 2
    assert tracer.counts["planner.grid_nodes"] == 2 * 40 * 40
    assert tracer.counts["epidemic.rk4_steps"] == 2 * 7300
    residual = tracer.gauges["planner.bellman_residual"]
    assert math.isfinite(residual) and residual < 1e-8
    metrics = spans.pass_metrics(tracer, [stem for stem, _ in QUICKSTART])
    assert {"planner.solve_s", "planner.residual_s",
            "epidemic.integrate_s"} <= set(metrics)


def test_traced_sweep_matches_the_command_line(spans, tmp_path):
    tracer = traced_matches_plain(spans, tmp_path,
                                  (("sensitivity", ("sensitivity",)),))
    # The sweep solves in one stacked call, which no swap wraps, so the
    # residual probe has no field to read.
    assert tracer.counts["planner.solve_calls"] == 0
    assert "planner.bellman_residual" not in tracer.gauges
    assert tracer.counts["sensitivity.scenarios"] == 10
    assert tracer.counts["sensitivity.distinct_costs"] == 6
    assert tracer.counts["epidemic.rk4_steps"] == 6 * 7300
