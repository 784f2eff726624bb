"""Traced in-process passes: spans around each call into a layer.

A traced pass runs `epiethics.cli.main` in process, with the argument
list a user would type. While it runs, the names the command line (and
run_sensitivity inside it) calls from config, planner, output, ethics
and sensitivity are swapped for traced wrappers, so each call into a
layer gets a span, and the subcommand's `_cmd_*` function gets the root
span. No package code changes. Spans and counters stay in memory until
the benchmark writes them out at the end.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import epiethics.cli as cli
import epiethics.sensitivity as sensitivity_module
from epiethics import (bellman_residual, check_axiom, integrate_trajectory,
                       run_sensitivity, simulate_optimal,
                       solve_value_function)

AXIOM_SPAN = "ethics.check_axiom."


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]     # index of the enclosing span, None at the root
    trace: str                # workload/seed/pass the span belongs to


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, trace: str):
        self.trace = trace
        self.spans: list = []
        self.counts: Counter = Counter()
        self.gauges: dict = {}
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        span = Span(name, time.perf_counter(), math.nan, parent, self.trace)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_totals(spans) -> dict:
    """Per span name: (calls, total seconds, self seconds)."""
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own
    return dict(totals)


def pass_metrics(tracer: Tracer, roots) -> dict:
    """Per-layer metrics of one pass: `<span>_s` totals, root self times,
    the axiom suite as the sum of the check_axiom spans, counters and
    gauges."""
    metrics = {}
    for name, (_, total, own) in layer_totals(tracer.spans).items():
        if name in roots:
            metrics[f"{name}.self_s"] = own
        else:
            metrics[f"{name}_s"] = total
        if name.startswith(AXIOM_SPAN):
            metrics["ethics.axiom_suite_s"] = \
                metrics.get("ethics.axiom_suite_s", 0.0) + total
    metrics.update(tracer.counts)
    metrics.update(tracer.gauges)
    return metrics


@contextmanager
def _swapped(module, replacements: dict):
    saved = {name: getattr(module, name) for name in replacements}
    for name, fn in replacements.items():
        setattr(module, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class TracedPass:
    """In-process command-line runs of one pass, with traced layers."""

    def __init__(self, tracer: Tracer, config: Path, seed: int):
        self.tr = tracer
        self.config = config
        self.seed = seed
        self.cfg = None             # RunConfig of the latest subcommand
        self.first_field = None     # (ValueField, params) of the first solve

    # Traced wrappers, with the signatures of the functions they wrap.
    # They call the package's own names, which no swap touches.

    def solve(self, params, grid, *args, **kwargs):
        with self.tr.span("planner.solve"):
            value, policy = solve_value_function(params, grid, *args,
                                                 **kwargs)
        self.tr.counts["planner.solve_calls"] += 1
        self.tr.counts["planner.grid_nodes"] += grid.n_S * grid.n_I
        if self.first_field is None:
            self.first_field = (value, params)
        return value, policy

    def simulate(self, *args, **kwargs):
        with self.tr.span("planner.simulate"):
            traj, summary = simulate_optimal(*args, **kwargs)
        self.tr.counts["epidemic.rk4_steps"] += len(traj) - 1
        return traj, summary

    def check_axiom(self, crit, axiom, *args, **kwargs):
        with self.tr.span(AXIOM_SPAN + axiom):
            report = check_axiom(crit, axiom, *args, **kwargs)
        self.tr.counts["ethics.samples"] += report.samples
        self.tr.counts["ethics.fail_verdicts"] += report.verdict == "fail"
        return report

    def sensitivity(self, *args, **kwargs):
        traced = {
            "solve_value_function": self.solve,
            "simulate_optimal": self.simulate,
            "death_cost_from_criterion": self.tr.wrap(
                "sensitivity.death_cost",
                sensitivity_module.death_cost_from_criterion),
        }
        with _swapped(sensitivity_module, traced), \
                self.tr.span("sensitivity.run"):
            report = run_sensitivity(*args, **kwargs)
        rows = report.all_rows()
        self.tr.counts["sensitivity.scenarios"] += len(rows)
        self.tr.counts["sensitivity.distinct_costs"] += len(
            {row.cost_per_death for row in rows})
        self.tr.counts["sensitivity.failed_rows"] += sum(
            not row.ok for row in rows)
        return report

    def run(self, stem: str, argv: tuple, out: Path):
        """Run `epiethics --config ... --out out --seed ... <argv>` in
        process, its `_cmd_*` function under a root span named `stem`.
        Returns the exit status and the root span."""
        cmd = f"_cmd_{argv[0]}"
        command = getattr(cli, cmd)
        roots = []

        def root(cfg, *args):
            self.cfg = cfg
            with self.tr.span(stem) as span:
                roots.append(span)
                return command(cfg, *args)

        wrap = self.tr.wrap
        traced = {
            cmd: root,
            "parse_config": wrap("config.parse", cli.parse_config),
            "solve_value_function": self.solve,
            "simulate_optimal": self.simulate,
            "write_fields_csv": wrap("output.fields_csv",
                                     cli.write_fields_csv),
            "write_trajectory_csv": wrap("output.trajectory_csv",
                                         cli.write_trajectory_csv),
            "write_summary": wrap("output.summary", cli.write_summary),
            "check_axiom": self.check_axiom,
            "property_matrix": wrap("ethics.property_matrix",
                                    cli.property_matrix),
            "repugnant_witness": wrap("ethics.witness_search",
                                      cli.repugnant_witness),
            "very_sadistic_witness": wrap("ethics.witness_search",
                                          cli.very_sadistic_witness),
            "write_ethics_csv": wrap("output.ethics_write",
                                     cli.write_ethics_csv),
            "write_ethics_text": wrap("output.ethics_write",
                                      cli.write_ethics_text),
            "run_sensitivity": self.sensitivity,
            "write_sensitivity_csv": wrap("output.sensitivity_write",
                                          cli.write_sensitivity_csv),
            "write_policy_diffs_csv": wrap("output.sensitivity_write",
                                           cli.write_policy_diffs_csv),
        }
        with _swapped(cli, traced):
            status = cli.main(["--config", str(self.config), "--out",
                               str(out), "--seed", str(self.seed), *argv])
        return status, (roots[0] if roots else None)

    def probes(self):
        """Layer probes the command line does not run on its own: the
        Bellman residual of the first solved field, and one uncontrolled
        RK4 integration without the discounting quadratures."""
        if self.first_field is not None:
            value, params = self.first_field
            with self.tr.span("planner.residual"):
                self.tr.gauges["planner.bellman_residual"] = \
                    bellman_residual(value, params)
        cfg = self.cfg
        with self.tr.span("epidemic.integrate"):
            integrate_trajectory(cfg.state0(), _no_lockdown, cfg.params,
                                 cfg.horizon, cfg.dt)


def _no_lockdown(state, t):
    return 0.0
