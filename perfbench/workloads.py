"""Workloads and metric tables of the benchmark.

Each workload is a closed loop: one client runs the workload's
subcommands one after another, at most one process at a time, each
invocation in a fresh process as a user would run it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Command:
    stem: str          # per-subcommand metric stem and root span name
    argv: tuple        # subcommand and its options

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str        # relative to the repository root
    commands: tuple    # one pass, in order
    why: str


WORKLOADS = {w.name: w for w in (
    # The README quick start. The only workload that writes the field
    # CSVs and runs the ethics layer; the planner solves once in solve
    # and once in simulate, and not at all in simulate --no-control.
    Workload("quickstart", "configs/benchmark.cfg",
             (Command("solve", ("solve",)),
              Command("simulate", ("simulate",)),
              Command("simulate_nocontrol", ("simulate", "--no-control")),
              Command("ethics", ("ethics",))),
             "README quick start on the shipped config: field CSVs, RK4 "
             "and the A1-A8 axiom suite; the only workload using ethics"),
    # The shipped sensitivity sweep: 10 scenarios on the 300^2 grid, of
    # which the benchmark, CU, TU, CLU(c=1) and fixed:20 rows all cost
    # 20, so 4 of 10 solves repeat a cost. The planner takes about 55%
    # and RK4 about 40%, so planner gains would show here, and so would
    # a cost cache.
    Workload("sweep", "configs/benchmark.cfg",
             (Command("sensitivity", ("sensitivity",)),),
             "shipped sensitivity sweep, 10 scenarios on 300^2 of which 4 "
             "repeat a cost: planner-bound, a cost cache would show here"),
)}

# Root span names, one per distinct subcommand invocation.
ROOT_STEMS = tuple(dict.fromkeys(
    c.stem for w in WORKLOADS.values() for c in w.commands))

# Metric tables, name: (unit, better). BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "config.parse_s": ("s", "lower"),
    "planner.solve_s": ("s", "lower"),
    "planner.solve_calls": ("count", "lower"),
    "planner.grid_nodes": ("count", "lower"),
    "planner.residual_s": ("s", "lower"),
    "planner.bellman_residual": ("value_units", "lower"),
    "planner.simulate_s": ("s", "lower"),
    "epidemic.integrate_s": ("s", "lower"),
    "epidemic.rk4_steps": ("count", "lower"),
    "output.fields_csv_s": ("s", "lower"),
    "output.trajectory_csv_s": ("s", "lower"),
    "output.summary_s": ("s", "lower"),
    "output.ethics_write_s": ("s", "lower"),
    "output.sensitivity_write_s": ("s", "lower"),
    "output.bytes": ("bytes", "lower"),
    **{f"ethics.check_axiom.A{k}_s": ("s", "lower") for k in range(1, 9)},
    "ethics.axiom_suite_s": ("s", "lower"),
    "ethics.property_matrix_s": ("s", "lower"),
    "ethics.witness_search_s": ("s", "lower"),
    "ethics.samples": ("count", "higher"),
    "ethics.fail_verdicts": ("count", "lower"),
    "sensitivity.run_s": ("s", "lower"),
    "sensitivity.death_cost_s": ("s", "lower"),
    "sensitivity.scenarios": ("count", "higher"),
    "sensitivity.distinct_costs": ("count", "higher"),
    **{f"{stem}.self_s": ("s", "lower") for stem in ROOT_STEMS},
}


def cli_argv(workload: Workload, command: Command, seed: int,
             out: Path) -> list:
    """One command-line invocation, as `epiethics ...` would run it."""
    return [sys.executable, "-m", "epiethics.cli",
            "--config", workload.config, "--out", str(out),
            "--seed", str(seed), *command.argv]


def setup_argv(workload: Workload) -> list:
    """A fresh process that imports the package and parses the config."""
    return [sys.executable, "-c",
            "import sys, epiethics; "
            "epiethics.parse_config(open(sys.argv[1]).read())",
            workload.config]
