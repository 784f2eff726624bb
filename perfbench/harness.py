"""Measurement loops of the benchmark.

Untraced run (--trace 0): time `import epiethics` plus `parse_config`
in fresh processes, then repeat the workload's subcommands in order
(at least three whole passes, then for the given seconds), one fresh
`epiethics` process per invocation, and report end-to-end metrics.
Traced run (--trace 1): one untraced pass of the command line, then
traced in-process passes (spans.py) for the rest of the time, and
report per-layer metrics and the tracing overhead. Every invocation is
checked (checks.py); a failed check fails the run.
"""

from __future__ import annotations

import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from checks import (REFERENCE_PATH, artifact_digests, changed_artifacts,
                    headline, headline_problems, load_reference,
                    repetition_problems)
from epiethics import parse_config
from spans import TracedPass, Tracer, layer_totals, pass_metrics
from workloads import (END_TO_END, PER_LAYER, ROOT, ROOT_STEMS, SRC,
                       WORKLOADS, Command, Workload, cli_argv, setup_argv)

WORK = ROOT / ".perfbench_run"

SETUP_REPS = 5            # timed set-up processes, after one warm-up
MIN_PASSES = 3           # whole passes in every untraced run; the
                         # median of three rejects one slow pass
CHILD_TIMEOUT_S = 90.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, stderr_path: Path) -> Child:
    """Run one process to its end: wall time and its own peak RSS.

    Waits on a pidfd, so the exit is seen at once without polling, and
    reaps with wait4 to get the child's own resource usage.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [],
                                             CHILD_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def _manifest_wall(path: Path) -> float:
    for line in path.read_text().splitlines():
        if line.startswith("wall_time_s="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"{path} has no wall_time_s line")


@dataclass
class Invocation:
    child: Child
    problems: list
    manifest_wall_s: float = float("nan")


@dataclass
class Run:
    """One benchmark run over one workload: invocations and their checks."""

    workload: Workload
    seed: int
    work: Path
    cfg: object                 # the workload's parsed RunConfig
    reference: dict | None      # this workload's reference; None records
    reference_seed: int
    attempted: int = 0
    failed: int = 0
    invocations: list = field(default_factory=list)
    first: dict = field(default_factory=dict)  # stem -> (digests, problems)
    headlines: dict = field(default_factory=dict)  # stem -> headline numbers

    def record(self, problems: list, what: str):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"CHECK FAILED [{what}]: {p}", file=sys.stderr)

    def invoke(self, command: Command) -> Invocation:
        """Run and check one command-line invocation."""
        out = self.work / f"{len(self.invocations):03d}-{command.stem}"
        log = out.with_suffix(".stderr")
        child = run_child(cli_argv(self.workload, command, self.seed, out),
                          log)
        inv = Invocation(child, [])
        if child.returncode != 0:
            inv.problems.append(f"exit code {child.returncode}: "
                                f"{log.read_text(errors='replace')[-400:]}")
        else:
            inv.problems += self._check(command, out)
            try:
                inv.manifest_wall_s = _manifest_wall(out / "run_manifest")
            except (OSError, ValueError) as exc:
                inv.problems.append(f"run_manifest: {exc}")
        self.record(inv.problems, f"{self.workload.name} {command.key}")
        self.invocations.append(inv)
        if not inv.problems:
            shutil.rmtree(out)
            log.unlink()
        return inv

    def _check(self, command: Command, out: Path) -> list:
        digests = artifact_digests(out)
        if command.stem in self.first:
            # An identical repeat inherits the first repetition's verdict.
            first_digests, first_problems = self.first[command.stem]
            return (repetition_problems(digests, first_digests)
                    or first_problems)
        problems = []
        try:
            got = headline(command.argv[0], out, self.cfg)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"cannot read headline numbers: {exc!r}")
        else:
            self.headlines[command.stem] = got
            if self.reference is not None:
                want = self.reference.get("headline", {}).get(command.stem)
                problems += (["no reference headline in reference.json"]
                             if want is None
                             else headline_problems(got, want))
        self.first[command.stem] = (digests, problems)
        return problems

    def first_pass(self) -> list:
        return [self.invoke(c) for c in self.workload.commands]

    def keyed_digests(self) -> dict:
        """"<command>/<file>" -> SHA-256, from each first repetition."""
        return {f"{c.key}/{name}": digest
                for c in self.workload.commands if c.stem in self.first
                for name, digest in self.first[c.stem][0].items()}

    def artifacts_changed(self) -> list:
        return changed_artifacts(self.keyed_digests(),
                                 self.reference.get("sha256", {}),
                                 self.seed, self.reference_seed)

    def repeated_cost_share(self):
        rows = self.headlines.get("sensitivity", {}).get("rows")
        if not rows:
            return None
        costs = [row["cost_per_death"] for row in rows.values()]
        return 1.0 - len(set(costs)) / len(costs)


def measure_untraced(run: Run, seconds: float) -> dict:
    setup = []
    for rep in range(SETUP_REPS + 1):
        log = run.work / f"setup-{rep}.stderr"
        child = run_child(setup_argv(run.workload), log)
        run.record([] if child.returncode == 0 else
                   [f"set-up exit code {child.returncode}: "
                    f"{log.read_text(errors='replace')[-400:]}"],
                   f"{run.workload.name} set-up")
        if rep:                     # the first one fills caches
            setup.append(child.wall_s)

    commands = run.workload.commands
    deadline = time.perf_counter() + seconds
    walls = {c.stem: [] for c in commands}
    i = 0
    while True:
        command = commands[i % len(commands)]
        # After MIN_PASSES whole passes, start an invocation only if it
        # should end before the deadline, so a run lasts about --seconds.
        if i >= MIN_PASSES * len(commands) and \
                time.perf_counter() + walls[command.stem][-1] > deadline:
            break
        walls[command.stem].append(run.invoke(command).child.wall_s)
        i += 1

    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(statistics.median(v) for v in walls.values()),
        "peak_rss_mb": max(inv.child.maxrss_mb for inv in run.invocations),
    }
    print(f"# workload {run.workload.name}, seed {run.seed}: closed loop, "
          f"1 client, {i} invocations in order")
    for stem, values in walls.items():
        print(f"{stem}_s = {statistics.median(values):.4f} s "
              f"(median of {len(values)})")
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)})")
    print(f"pass_s = {metrics['pass_s']:.4f} s "
          f"(sum of the per-subcommand medians)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB "
          f"(max of {len(run.invocations)} invocations)")
    return metrics


def _traced_pass(run: Run, index: int, untraced_s: float):
    """One traced pass; its artifacts must match the command line's."""
    tracer = Tracer(f"{run.workload.name}/seed{run.seed}/pass{index}")
    traced = TracedPass(tracer, ROOT / run.workload.config, run.seed)
    traced_s, nbytes = 0.0, 0
    for command in run.workload.commands:
        out = run.work / f"traced{index}-{command.stem}"
        status, root = traced.run(command.stem, command.argv, out)
        if status != 0 or root is None:
            run.record([f"exit status {status}"],
                       f"{run.workload.name} traced {command.key}")
            continue
        traced_s += root.end - root.start
        digests = artifact_digests(out)
        nbytes += sum(p.stat().st_size for p in out.iterdir())
        expected = run.first.get(command.stem, ({}, None))[0]
        problems = [f"traced {name} differs from the command line's"
                    for name in sorted(set(digests) | set(expected))
                    if digests.get(name) != expected.get(name)]
        run.record(problems, f"{run.workload.name} traced {command.key}")
        if not problems:
            shutil.rmtree(out)
    traced.probes()
    metrics = pass_metrics(tracer, ROOT_STEMS)
    metrics["output.bytes"] = nbytes
    return tracer, metrics, traced_s / untraced_s - 1.0


def measure_traced(run: Run, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    untraced_s = sum(inv.manifest_wall_s for inv in run.first_pass())
    tracers, passes, overheads = [], [], []
    while True:
        started = time.perf_counter()
        tracer, metrics, overhead = _traced_pass(run, len(passes),
                                                 untraced_s)
        tracers.append(tracer)
        passes.append(metrics)
        overheads.append(overhead)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    metrics = {name: statistics.median(p.get(name, 0) for p in passes)
               for name in PER_LAYER}
    changed = run.artifacts_changed()

    print(f"# workload {run.workload.name}, seed {run.seed}: 1 untraced "
          f"pass, then {len(passes)} traced pass(es)")
    print(f"{'span':30} {'calls':>6} {'total_s':>9} {'self_s':>9}"
          f"   (first traced pass)")
    for name, (calls, total, own) in layer_totals(tracers[0].spans).items():
        print(f"{name:30} {calls:6d} {total:9.4f} {own:9.4f}")
    for name in PER_LAYER:
        unit = PER_LAYER[name][0]
        print(f"{name} = {metrics[name]:.6g} {unit} "
              f"(median of {len(passes)})")
    # Printed for information only; each is usually 0 or noise, so
    # BENCHMARK.json does not list them.
    print(f"sensitivity.failed_rows = "
          f"{max(p.get('sensitivity.failed_rows', 0) for p in passes)} "
          f"count (max of {len(passes)})")
    print(f"trace.overhead = {100 * statistics.median(overheads):+.2f}% "
          f"(traced subcommands against the untraced pass's "
          f"wall_time_s, {untraced_s:.3f} s; median of {len(passes)})")
    print(f"output.artifacts_changed = {len(changed)} count against "
          f"reference.json {changed if changed else ''}")

    dump = WORK / f"spans-{run.workload.name}-seed{run.seed}.json"
    dump.write_text(json.dumps([vars(s) for t in tracers for s in t.spans]))
    print(f"spans written to {dump.relative_to(ROOT)}")
    return metrics


def print_environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}"
                        for v in THREAD_VARS)
    print(f"# environment: python {platform.python_version()}, numpy "
          f"{numpy.__version__}, scipy {scipy.__version__}, nproc "
          f"{os.cpu_count()}, cpu {cpu}; {threads}")


def record_reference(run: Run) -> int:
    """Store one pass's headline numbers and digests as the reference."""
    run.first_pass()
    if run.failed:
        print("not recorded: an invocation failed", file=sys.stderr)
        return 1
    ref = (load_reference() if REFERENCE_PATH.exists()
           else {"workloads": {}})
    ref["seed"] = run.seed
    ref["workloads"][run.workload.name] = {
        "headline": run.headlines, "sha256": run.keyed_digests()}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True)
                              + "\n")
    print(f"recorded {run.workload.name} at seed {run.seed}")
    return 0


def main(args) -> int:
    workload = WORKLOADS[args.workload]
    reference = (load_reference() if REFERENCE_PATH.exists()
                 else {"seed": 0, "workloads": {}})
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, work,
              parse_config((ROOT / workload.config).read_text()),
              reference["workloads"].get(workload.name, {}),
              reference["seed"])
    if args.record_reference:
        run.reference = None
        status = record_reference(run)
        shutil.rmtree(work)
        return status

    print_environment()
    if args.trace:
        metrics, units = measure_traced(run, args.seconds), PER_LAYER
    else:
        metrics, units = measure_untraced(run, args.seconds), END_TO_END
        changed = run.artifacts_changed()
        print(f"output.artifacts_changed = {len(changed)} count against "
              f"reference.json {changed if changed else ''}")
    share = run.repeated_cost_share()
    if share is not None:
        print(f"repeated-cost share: {100 * share:.0f}% of sweep scenarios")
    print(f"failed_share = {run.failed / run.attempted:.4f} ratio "
          f"({run.failed} of {run.attempted} operations)")
    correct = run.failed == 0
    if correct:
        shutil.rmtree(work)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units}}))
    return 0 if correct else 1
