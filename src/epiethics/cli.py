"""Command line interface.

Subcommands: solve (grid solve, exports value/policy fields), simulate
(closed-loop trajectory), ethics (axiom suite, property matrix and
conclusion witness searches), sensitivity (criterion-derived and fixed
death-cost ladder). Exit codes: 0 success, 1 configuration error
(an unreadable config, or an output directory or file that cannot be
written), 2 solver failure: non-convergence, a non-finite value, or a
state leaving [0, 1].
"""

from __future__ import annotations

import argparse
import logging
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, RunConfig, criterion_from_spec, parse_config
from .epidemic import IntegrationError
from .ethics import (AXIOM_IDS, Allocation, check_axiom, check_axioms,
                     property_matrix, repugnant_witness,
                     very_sadistic_witness)
from .output import (write_ethics_csv, write_ethics_text, write_fields_csv,
                     write_manifest, write_policy_diffs_csv,
                     write_sensitivity_csv, write_summary,
                     write_trajectory_csv)
from .planner import (SolverConvergenceError, SolverNumericalError,
                      simulate_optimal, solve_value_function)
from .sensitivity import run_sensitivity

logger = logging.getLogger(__name__)

REPUGNANT_BASE = Allocation.of(100.0)
REPUGNANT_EPSILON = 0.1
REPUGNANT_N_MAX = 100_000
SADISTIC_N_MAX = 1_000


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="epiethics",
        description="Optimal lockdown planning with explicit "
                    "population-ethics death valuation.")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="key=value config file (defaults apply if omitted)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help="rng seed (overrides config seed)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", help="solve the planner problem and export "
                                 "the value and policy fields")

    sim = sub.add_parser("simulate", help="closed-loop trajectory under "
                                          "the solved policy")
    sim.add_argument("--tau", type=int, choices=(0, 1), default=None,
                     help="testing regime override")
    sim.add_argument("--no-control", action="store_true",
                     help="simulate the uncontrolled epidemic (L = 0)")

    eth = sub.add_parser("ethics", help="axiom suite, property matrix and "
                                        "conclusion witness searches")
    eth.add_argument("--criterion", default=None, metavar="SPEC",
                     help="check a single criterion, e.g. CLU:c=1")
    eth.add_argument("--samples", type=int, default=None, metavar="N",
                     help="samples per axiom check")

    sub.add_parser("sensitivity", help="solve once per criterion-derived "
                                       "death cost plus the fixed ladder")
    return p


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    # replace() re-runs RunConfig's checks on the overridden values.
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.out is not None:
        changes["out_dir"] = args.out
    if getattr(args, "samples", None) is not None:
        changes["samples"] = args.samples
    if getattr(args, "tau", None) is not None:
        changes["params"] = replace(cfg.params, tau=args.tau)
    if getattr(args, "criterion", None) is not None:
        changes["criteria"] = (criterion_from_spec(args.criterion),)
    return replace(cfg, **changes)


def _cmd_solve(cfg: RunConfig, out: Path):
    value, policy = solve_value_function(cfg.params, cfg.grid, tol=cfg.tol,
                                         max_iters=cfg.max_iters)
    # Both files carry the S,I,V,L schema, so the fields are formatted once.
    write_fields_csv(out / "value.csv", value, policy)
    shutil.copyfile(out / "value.csv", out / "policy.csv")


def _cmd_simulate(cfg: RunConfig, out: Path, no_control: bool):
    if no_control:
        policy = None
    else:
        _, policy = solve_value_function(cfg.params, cfg.grid, tol=cfg.tol,
                                         max_iters=cfg.max_iters)
    traj, summary = simulate_optimal(policy, cfg.params, cfg.state0(),
                                     cfg.horizon, cfg.dt)
    logger.info("deaths=%.6f gdp_loss=%.6f death_cost=%.6f",
                summary.total_deaths, summary.gdp_loss, summary.death_cost)
    write_trajectory_csv(out / "trajectory.csv", traj, cfg.output_stride)
    write_summary(out / "summary.txt", summary)


def _axiom_reports(criteria, kwargs) -> list:
    # The A1-A8 suite, one row of reports per criterion. check_axioms
    # judges every criterion on one draw per axiom. A one-criterion run
    # has nothing to share and calls check_axiom, its one-criterion case,
    # once per axiom: perfbench's traced pass times those calls and does
    # not wrap check_axioms yet.
    if len(criteria) == 1:
        return [[check_axiom(criteria[0], axiom, **kwargs)
                 for axiom in AXIOM_IDS]]
    by_axiom = [check_axioms(criteria, axiom, **kwargs)
                for axiom in AXIOM_IDS]
    return list(zip(*by_axiom))


def _cmd_ethics(cfg: RunConfig, out: Path):
    kwargs = dict(samples=cfg.samples, seed=cfg.seed, pop_cap=cfg.pop_cap,
                  level_range=cfg.level_range())
    suite = _axiom_reports(cfg.criteria, kwargs)
    searches, repugnant = [], []
    for crit in cfg.criteria:
        wit = repugnant_witness(crit, REPUGNANT_BASE, REPUGNANT_EPSILON,
                                REPUGNANT_N_MAX)
        repugnant.append(wit)
        searches.append((crit.label, "repugnant-conclusion",
                         "witness-found" if wit else
                         f"none-found-up-to-{REPUGNANT_N_MAX}", wit))
        sad = very_sadistic_witness(crit, SADISTIC_N_MAX)
        searches.append((crit.label, "very-sadistic-conclusion",
                         "witness-found" if sad else
                         f"none-found-up-to-{SADISTIC_N_MAX}", sad))
    # The matrix only assembles: its sampled cells are the suite's A4,
    # A5 and A8 reports and one negative-expansion check on the suite's
    # draw settings, which ethics.csv does not list as suite rows.
    expansion = check_axioms(cfg.criteria, "negative-expansion", **kwargs)
    rows = [[*row, rep] for row, rep in zip(suite, expansion)]
    matrix = property_matrix(cfg.criteria, rows, repugnant)
    reports = [report for row in suite for report in row]
    write_ethics_csv(out / "ethics.csv", reports, matrix, searches)
    write_ethics_text(out / "ethics.txt", reports, matrix, searches)


def _cmd_sensitivity(cfg: RunConfig, out: Path):
    report = run_sensitivity(cfg.params, cfg.criteria, victim=cfg.victim,
                             reference_pop=cfg.reference_pop, grid=cfg.grid,
                             state0=cfg.state0(), horizon=cfg.horizon,
                             dt=cfg.dt, ladder=cfg.ladder, tol=cfg.tol,
                             max_iters=cfg.max_iters)
    write_sensitivity_csv(out / "sensitivity.csv", report)
    write_policy_diffs_csv(out / "policy_diffs.csv", report)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8-sig")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        else:
            text = ""
        cfg = parse_config(text)
        cfg = _apply_overrides(cfg, args)
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    try:
        if args.command == "solve":
            _cmd_solve(cfg, out)
        elif args.command == "simulate":
            _cmd_simulate(cfg, out, args.no_control)
        elif args.command == "ethics":
            _cmd_ethics(cfg, out)
        else:
            _cmd_sensitivity(cfg, out)
        write_manifest(out / "run_manifest", args.command, cfg,
                       time.perf_counter() - t0)
    except (SolverConvergenceError, SolverNumericalError,
            IntegrationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
