"""pplv benchmark: closed-loop CLI workloads, timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze_trig --seed 1 --seconds 30 --trace 0

One caller runs generated cases back to back, in this process, through
``pplv.cli.main`` (argument parsing, ``run_command``, exit-code mapping),
for ``--seconds`` of wall time.  Every case's stdout is checked (see
checks.py).  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from the span recorder (spans.py)
with ``--trace 1``.  The lines before it print every metric by name and
unit, including those that exist only on some workloads.

The times behind ``setup_s``, ``case_ms_p50`` and ``cases_per_s`` are
rescaled to a reference host speed, measured by a calibration kernel
(hostspeed.py): sampled while the cases run, and timed inside each
cold-start interpreter right after its import.  The raw wall times are
printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_STARTS = 5
TAIL_MIN_BEYOND = 10

# A cold start: import pplv.cli, note the (system-wide monotonic) time,
# then time the calibration kernel in the same process.
COLD_START = ("import pplv.cli, time\n"
              "done = time.perf_counter()\n"
              "import hostspeed\n"
              "print(done, hostspeed.kernel_ms(5))\n")


def cold_start(extra_args=()) -> tuple[float, float, str]:
    """Wall seconds of a fresh interpreter up to a completed ``import
    pplv.cli``, the kernel time (ms) measured right after in that
    interpreter, and its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra_args, "-c", COLD_START],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import pplv.cli failed:\n{proc.stderr}")
    done, kernel_ms = map(float, proc.stdout.split())
    return done - t0, kernel_ms, proc.stderr


def measure_setup() -> tuple[float, float]:
    """Median cold start in seconds: normalised to the reference host
    speed by the kernel timed in the same interpreter, and raw."""
    cold_start()  # compiles the bytecode cache once
    starts = [cold_start()[:2] for _ in range(SETUP_STARTS)]
    return (statistics.median(wall * hostspeed.PROBE_REF_MS / kernel_ms for wall, kernel_ms in starts),
            statistics.median(wall for wall, _ in starts))


def run_case(cli, case: gen.Case, workdir: Path) -> tuple[float, float, list[checks.Outcome]]:
    """Run every command of ``case``; returns (start, end, outcomes)."""
    config = workdir / "system.cfg"
    config.write_text(case.config)
    outcomes = []
    t0 = time.perf_counter()
    for command, *args in case.commands:
        argv = ["--command", command, "--config", str(config), "--out", str(workdir), *args]
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            outcomes.append(checks.Outcome(command, code, stdout.getvalue()))
        except Exception as exc:  # an uncaught error is a result to report
            outcomes.append(checks.Outcome(command, None, stdout.getvalue(), type(exc).__name__))
    return t0, time.perf_counter(), outcomes


def tail(times_ms: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten cases beyond it, or
    None when that is below p75 (too few cases for a tail)."""
    n = len(times_ms)
    q = math.floor(100 * (n - TAIL_MIN_BEYOND) / n) if n else 0
    if q < 75:
        return None
    ordered = sorted(times_ms)
    return q, ordered[max(0, math.ceil(q * n / 100) - 1)]


class Run:
    """Outcome counters and case intervals of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.unexpected = 0
        self.failed_any = 0
        self.orbit_cases = 0
        self.orbit_found = 0
        self.intervals: list[tuple[float, float, bool]] = []  # (start, end, completed)
        self.notes: list[str] = []

    def add(self, case: gen.Case, t0: float, t1: float, verdict: checks.Verdict) -> None:
        self.attempted += 1
        self.intervals.append((t0, t1, verdict.failure is None))
        if verdict.failure is not None:
            self.failed_any += 1
            if verdict.failure != "known_defect":
                self.unexpected += 1
                self.notes.append(f"{case.key}: {'; '.join(verdict.notes)}")
        if "simulate" in verdict.record:
            self.orbit_cases += 1
            self.orbit_found += verdict.orbits_found > 0

    def outcome_metrics(self) -> dict[str, tuple[float, str]]:
        out = {"failed_ratio": (self.failed_any / max(self.attempted, 1), "ratio")}
        if self.orbit_cases:
            out["orbit_found_ratio"] = (self.orbit_found / self.orbit_cases, "ratio")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pplv" / "cli.py").is_file():
        print(f"perfbench: no pplv sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pplv import cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: imported pplv from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        return _run(cli, args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _run(cli, args) -> int:
    reference = json.loads(REFERENCE.read_text())
    thresholds = reference["thresholds"]
    refs = reference["cases"]
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup()

    stream = gen.cases(args.workload, args.seed)
    first = next(stream)
    # Warm-up: the first case once untimed; its stdout must repeat byte for byte.
    *_, warm = run_case(cli, first, WORK)
    recorder = spans.Recorder() if args.trace else None
    run = Run()
    overhead_s = []
    case = first
    meter = hostspeed.SpeedMeter() if recorder is None else contextlib.nullcontext()
    with meter:
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            if recorder is None:
                t0, t1, outcomes = run_case(cli, case, WORK)
            else:
                t0, t1, outcomes, untraced = _traced_pair(cli, case, recorder, run.attempted, overhead_s)
            verdict = checks.judge(outcomes, thresholds, refs.get(case.key))
            if recorder is not None and [o.stdout for o in outcomes] != [o.stdout for o in untraced]:
                verdict.failure = "check"
                verdict.notes.append("tracing changed stdout")
            if case is first and [o.stdout for o in outcomes] != [o.stdout for o in warm]:
                verdict.failure = "check"
                verdict.notes.append("stdout differs between two runs of the same case")
            run.add(case, t0, t1, verdict)
            case = next(stream)

    metrics: dict[str, tuple[float, str]] = {}
    if recorder is None:
        # (wall s, normalised s, completed) per case
        times = [(*meter.normalise(t0, t1), ok) for t0, t1, ok in run.intervals]
        done_ms = [norm * 1e3 for _, norm, ok in times if ok]
        done_wall_ms = [wall * 1e3 for wall, _, ok in times if ok]
        busy_s = sum(norm for _, norm, _ in times)
        wall_busy_s = sum(wall for wall, _, _ in times)
        metrics["setup_s"] = (setup_s, "s")
        metrics["case_ms_p50"] = (statistics.median(done_ms) if done_ms else math.nan, "ms")
        metrics["cases_per_s"] = (len(done_ms) / busy_s, "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        extra = dict(run.outcome_metrics())
        t = tail(done_ms)
        if t is not None:
            extra[f"case_ms_tail (p{t[0]})"] = (t[1], "ms")
        extra["wall setup_s"] = (setup_wall_s, "s")
        if done_wall_ms:
            extra["wall case_ms_p50"] = (statistics.median(done_wall_ms), "ms")
        extra["wall cases_per_s"] = (len(done_wall_ms) / wall_busy_s, "1/s")
        extra["host speed p50"] = (statistics.median(norm / wall for wall, norm, _ in times), "x")
        print(f"{args.workload} seed={args.seed}: {run.attempted} cases, "
              f"{len(done_ms)} completed, {wall_busy_s:.2f} s busy (wall)")
        for name, (value, unit) in {**metrics, **extra}.items():
            print(f"  {name:<28} {value:>14.6g} {unit}")
    else:
        layer = recorder.layer_metrics(run.attempted)
        layer.update(spans.import_times(cold_start(("-X", "importtime"))[2]))
        layer["trace.overhead_ms"] = statistics.mean(overhead_s) * 1e3
        for name, (value, _) in run.outcome_metrics().items():
            layer[name] = value
        layer.setdefault("orbit_found_ratio", 0.0)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans_{args.workload}_{args.seed}.json"
        recorder.dump(span_file)
        print(f"{args.workload} seed={args.seed}: {run.attempted} traced cases, spans -> {span_file}")
        for name, value in layer.items():
            print(f"  {name:<52} {value:>14.6g}")
        metrics = {name: (value, _layer_unit(name)) for name, value in layer.items()}
    for note in run.notes:
        print(f"  FAILED {note}")

    print(json.dumps({
        "correct": run.unexpected == 0,
        "attempted": run.attempted,
        "failed": run.unexpected,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _traced_pair(cli, case, recorder, index, overhead_s):
    """Run ``case`` untraced and traced, in alternating order; returns the
    untraced start and end, the traced outcomes and the untraced outcomes."""
    recorder.case = case.key
    order = (False, True) if index % 2 == 0 else (True, False)
    results = {}
    for traced in order:
        if traced:
            recorder.install()
        try:
            results[traced] = run_case(cli, case, WORK)
        finally:
            recorder.uninstall()
    (t0, t1, untraced), (u0, u1, traced) = results[False], results[True]
    overhead_s.append((u1 - u0) - (t1 - t0))
    return t0, t1, traced, untraced


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
