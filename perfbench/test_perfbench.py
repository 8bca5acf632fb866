"""Self-test of the benchmark: deterministic inputs, checks that reject
corrupted outputs, and the span arithmetic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import time

import pytest

import checks
import gen
import hostspeed
import run
import spans

sys.path.insert(0, str(run.SRC))
from pplv import cli  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [gen.case(workload, 7, i) for i in range(8)]
    again = [gen.case(workload, 7, i) for i in range(8)]
    other = [gen.case(workload, 8, i) for i in range(8)]
    assert first == again
    assert [c.config for c in first] != [c.config for c in other]
    assert gen.anchors(workload) == gen.anchors(workload)
    for c in first + gen.anchors(workload):
        cli.parse_config(c.config)


def test_mix_keeps_defect_inputs_and_covers_the_period_range():
    periods = [float(gen.case("const_study", 3, i).config.split("\n")[1].split("=")[1])
               for i in range(20)]
    assert min(periods) < 0.2 and max(periods) > 2.0
    assert [c.family for c in gen.anchors("orbits")] == ["perturbed_demo", "saddle"]
    families = {gen.case("orbits", 3, i).family for i in range(len(gen.ORBIT_FAMILIES))}
    assert families == set(gen.ORBIT_FAMILIES)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def _judge(case, outcomes):
    return checks.judge(outcomes, REFERENCE["thresholds"], REFERENCE["cases"].get(case.key))


def test_analyze_check_accepts_real_output_and_rejects_corruption(workdir):
    case = gen.anchors("const_study")[0]
    *_, outcomes = run.run_case(cli, case, workdir)
    assert _judge(case, outcomes).failure is None

    analyze = outcomes[0]
    flipped = analyze.stdout.replace("      pass", "      FAIL", 1)
    assert flipped != analyze.stdout
    bad_flag = [checks.Outcome("analyze", analyze.exit_code, flipped)] + outcomes[1:]
    assert _judge(case, bad_flag).failure == "check"

    bad_exit = [checks.Outcome("analyze", 2, analyze.stdout)] + outcomes[1:]
    assert _judge(case, bad_exit).failure == "check"

    lines = analyze.stdout.splitlines()
    i = next(j for j, ln in enumerate(lines) if ln.lstrip().startswith("unified_lp"))
    lines[i] = lines[i].replace("rhs=2 ", "rhs=3 ")
    bad_rhs = [checks.Outcome("analyze", analyze.exit_code, "\n".join(lines) + "\n")] + outcomes[1:]
    assert _judge(case, bad_rhs).failure == "check"


def test_known_defect_is_counted_but_not_unexpected(workdir):
    case = gen.anchors("const_study")[1]  # demo constants at T = 0.1
    *_, outcomes = run.run_case(cli, case, workdir)
    verdict = _judge(case, outcomes)
    assert outcomes[-1].raised in (None, "OverflowError")
    assert verdict.failure in (None, "known_defect")
    renamed = outcomes[:-1] + [checks.Outcome("example1", None, "", "ZeroDivisionError")]
    assert _judge(case, renamed).failure == "raised"


def test_simulate_check_rejects_false_membership_and_det_mismatch(workdir):
    case = gen.anchors("orbits")[0]
    *_, outcomes = run.run_case(cli, case, workdir)
    verdict = _judge(case, outcomes)
    assert verdict.failure is None and verdict.orbits_found == 1
    text = outcomes[0].stdout
    for bad in (text.replace("ok = True", "ok = False", 1),
                text.replace("trace-integral check = 0.", "trace-integral check = 1.", 1)):
        assert bad != text
        assert _judge(case, [checks.Outcome("simulate", 0, bad)]).failure == "check"


def test_stable_verdict_forbids_a_second_orbit():
    ref = {"analyze_verdict": "globally_stable_via_18_19"}
    orbit = {"moduli": [0.5, 0.1], "classification": "asymptotically_stable"}
    checks.compare({"simulate": {"orbits": [orbit]}}, ref)
    with pytest.raises(checks.CheckFailure):
        checks.compare({"simulate": {"orbits": [orbit, orbit]}}, ref)


def test_tail_percentile_keeps_ten_cases_beyond():
    assert run.tail([float(i) for i in range(20)]) is None
    q, value = run.tail([float(i) for i in range(100)])
    assert q == 90 and sum(t > value for t in range(100)) == 10


def test_speed_meter_removes_probes_and_rescales_to_the_reference():
    meter = hostspeed.SpeedMeter()
    ref_s = hostspeed.PROBE_REF_MS * 1e-3
    # Probes twice as slow as the reference, one of them inside [1, 2).
    meter.samples = [(0.95, 2 * ref_s), (1.5, 2 * ref_s), (2.05, 2 * ref_s), (9.0, ref_s)]
    wall, norm = meter.normalise(1.0, 2.0)
    assert wall == pytest.approx(1.0 - 2 * ref_s)
    assert norm == pytest.approx(wall / 2)
    with hostspeed.SpeedMeter() as live:
        deadline = time.perf_counter() + 3 * hostspeed.PROBE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(live.samples) >= 2


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    rec.spans = [
        ["criteria.scan_p", 0, 10_000_000, None, "c", None],
        ["coeffs.stats", 1_000_000, 4_000_000, 0, "c", None],
        ["simulate.find_coexistence", 4_000_000, 5_000_000, 0, "c", "NonPositive"],
        ["simulate.find_coexistence", 5_000_000, 6_000_000, 0, "c", None],
    ]
    m = rec.layer_metrics(n_cases=1)
    assert m["criteria.scan_p.self_ms"] == pytest.approx(5.0)
    assert m["coeffs.stats.self_ms"] == pytest.approx(3.0)
    assert m["simulate.find_coexistence.fail.NonPositive"] == 1
    assert m["simulate.start_ok_ratio"] == pytest.approx(0.5)
