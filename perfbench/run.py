#!/usr/bin/env python3
"""Benchmark of the `epiethics` command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 45 --trace 0

--trace 0 runs the command line as users run it and prints the
end-to-end metrics; --trace 1 adds traced in-process passes and prints
the per-layer metrics (see harness.py). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every check passed, 1 when one failed and 2
when the checkout holds no package to run.
"""

from __future__ import annotations

import argparse
import sys

from workloads import ROOT, SRC, WORKLOADS


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="passed to every invocation as --seed")
    p.add_argument("--seconds", type=float, default=45.0,
                   help="how long to repeat the workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="run one pass and store its headline numbers and "
                        "digests in reference.json (use seed 0)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    config = ROOT / WORKLOADS[args.workload].config
    if not (SRC / "epiethics" / "__init__.py").is_file() \
            or not config.is_file():
        print(f"cannot run: no epiethics package under {SRC} or no "
              f"config {config}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
