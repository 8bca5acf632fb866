"""Run every workload once and print all metrics by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process (peak memory is per process) via
run.py, whose output, output checks included, is passed through.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import gen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    script = Path(__file__).resolve().parent / "run.py"
    status = 0
    for workload in gen.WORKLOADS:
        proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
