"""Record reference.json: the outputs of every anchor case at this commit.

Run from the repository root:

    python3 perfbench/record_reference.py

The benchmark compares each run's anchor cases with these records (see
checks.compare).  Re-record only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import gen
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from pplv import cli, jfunc

    thresholds = {}
    for token in gen.ANALYZE_P.split(","):
        thresholds[token] = jfunc.threshold_p(float(token))
    cases = {}
    run.WORK.mkdir(exist_ok=True)
    try:
        for workload in gen.WORKLOADS:
            for case in gen.anchors(workload):
                *_, outcomes = run.run_case(cli, case, run.WORK)
                entry = checks.reference_entry(checks.record(outcomes, thresholds))
                if workload == "orbits":
                    verdict_case = gen.Case(case.key, case.family, case.config,
                                            (("analyze", "--p", gen.ANALYZE_P),))
                    *_, (analyze,) = run.run_case(cli, verdict_case, run.WORK)
                    entry["analyze_verdict"] = checks.record([analyze], thresholds)["analyze"]["conclusion"]
                cases[case.key] = entry
                print(case.key, json.dumps(entry)[:160])
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps({"thresholds": thresholds, "cases": cases}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
