"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here and matches the library defaults.
"""

import io
import math
import time

import numpy as np
import pytest
from scipy.special import ellipk

from conftest import const_spec, figure_region, format_config
from oracles import envelope, grid_supxy

from pplv import cli, simulate
from pplv.constant_case import (
    check25,
    demo_constants,
    equilibrium,
    linear_term,
    sign_scan,
)
from pplv.coeffs import PeriodicCoefficient, stats
from pplv.criteria import (
    UNIQUE_ASYMPTOTICALLY_STABLE,
    condition18,
    condition19,
    intertwined_test,
    scan_p,
    weak_intertwined_test,
)
from pplv.jfunc import INF, angular_integral, conjugate, threshold_p, threshold_q
from pplv.logistic import periodic_logistic, weighted_average
from pplv.region import compute_uv, region_spec, sup_linear, sup_xy
from pplv.simulate import (
    ASYMPTOTICALLY_STABLE,
    find_coexistence,
    find_coexistence_multistart,
    floquet,
    liouville_determinant,
    verify_predictions,
)

TRIG = PeriodicCoefficient.trig


def ok(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def test_criterion_01_special_functions():
    t0 = time.monotonic()
    j1 = angular_integral(1.0)
    assert abs(j1 - 2.0 * math.pi) <= 1e-9

    j2 = angular_integral(2.0)
    oracle = 4.0 * ellipk(0.5)
    assert abs(j2 - oracle) <= 1e-6
    assert j2 == pytest.approx(7.4162987, abs=1e-6)

    j100 = angular_integral(100.0)
    assert abs(j100 - 8.0) < 0.05

    grid = [1.0 + 0.25 * i for i in range(197)]
    vals = [angular_integral(q) for q in grid]
    assert all(hi > lo for lo, hi in zip(vals, vals[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    ok(1, f"angular integral endpoints/monotonicity in {elapsed:.2f}s")


def test_criterion_02_threshold_monotonicity():
    qs = np.linspace(1.0, 50.0, 40)
    f_vals = [threshold_q(q) for q in qs]
    diffs = [lo - hi for lo, hi in zip(f_vals, f_vals[1:])]
    assert all(d > 1e-8 for d in diffs)

    ps = sorted(conjugate(q) for q in qs[1:])  # mirrored grid in (1, inf)
    sf_vals = [threshold_p(p) for p in ps]
    sdiffs = [hi - lo for lo, hi in zip(sf_vals, sf_vals[1:])]
    assert all(d > 1e-8 for d in sdiffs)

    assert abs(threshold_p(1.0) - 2.0) <= 1e-10
    assert abs(threshold_p(INF) - math.pi) <= 1e-10
    ok(2, "thresholds strictly monotone; endpoints 2 and pi exact to 1e-10")


def _g_oracle(p: float) -> float:
    # 50-digit reference for the demo constants
    import mpmath as mp
    mp.mp.dps = 50
    a, b, c = mp.mpf("2.0102"), mp.mpf("1"), mp.mpf("0.0051")
    d, e, f = mp.mpf("2.0203"), mp.mpf("0.9898"), mp.mpf("2")
    det = b * f + c * e
    x1 = (a * f - c * d) / det
    y1 = (a * e + b * d) / det
    k = (b * x1 + f * y1) / 2
    U = a / b
    V = d / f + (e / f) * U
    if p == 1.0:
        fp = mp.mpf(2)
    elif p == 2.0:
        fp = 4 * mp.ellipk(mp.mpf(1) / 2) / 2 ** mp.mpf("1.5")
    else:
        q = mp.mpf(p) / (mp.mpf(p) - 1)
        fp = mp.quad(lambda th: (mp.cos(th) ** (2 * q) + mp.sin(th) ** (2 * q))
                     ** (-1 / q), [0, mp.pi / 4]) * 8 / 2 ** (2 - 1 / q)
    h = ((fp - k) ** 2 / (c * e)) ** mp.mpf(p)
    return float((a / c) ** 2 * V ** (p - 1) - 4 * (b / c) * h / U ** (p - 1))


def test_criterion_03_sign_pattern():
    sysc = demo_constants()
    t0 = time.monotonic()
    g1, g2, g200 = (row.g for row in sign_scan(sysc, (1.0, 2.0, 200.0)).rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0

    oracle1 = _g_oracle(1.0)
    assert g1 > 0 and oracle1 > 0
    assert abs(g1 - oracle1) <= 0.05 * abs(oracle1)
    assert g1 == pytest.approx(3.29, abs=0.01)

    oracle2 = _g_oracle(2.0)
    assert g2 < 0
    assert abs(g2 - oracle2) <= 0.01 * abs(oracle2)
    assert g2 == pytest.approx(-744.8, rel=0.01)

    assert g200 > 0
    pattern = check25(sysc, 2.0)
    assert (pattern.g1_positive, pattern.gstar_negative, pattern.glarge_positive) \
        == (True, True, True)
    ok(3, f"G(1)={g1:.4f}>0, G(2)={g2:.1f}<0, G(200)>0 in {elapsed:.3f}s")


def test_criterion_04_direct_intertwined_demo(eq30, eq30_spec):
    x1, y1 = equilibrium(eq30_spec)
    k = linear_term(eq30_spec)
    ce = eq30.c * eq30.e
    bounds = compute_uv(eq30_spec)
    refs = {
        1.0: math.sqrt(ce * x1 * y1) + k,
        INF: math.sqrt(ce * bounds.U * bounds.V) + k,
    }
    reg2 = region_spec(eq30_spec).at(2.0)
    xmax, ymax = envelope(reg2)
    grid_val, _ = grid_supxy(reg2, xmax, ymax)
    refs[2.0] = math.sqrt(ce * grid_val) + k

    rhs_expected = {1.0: 2.0, 2.0: 2.6220576, INF: math.pi}
    for p in (1.0, 2.0, INF):
        res = intertwined_test(eq30_spec, p)
        assert not res.passed
        assert res.lhs == pytest.approx(refs[p], abs=1e-4)
        assert res.rhs == pytest.approx(rhs_expected[p], abs=1e-6)
    rows = sign_scan(eq30_spec, (1.0, 2.0)).rows
    assert rows[0].sign_ok is False
    assert rows[1].sign_ok is False

    # the discrepancy note is emitted by the demo pipeline
    buf = io.StringIO()
    cfg = cli.RunConfig(command="example1", system_file=None,
                        p_list=(2.0,), output_dir=None, emit_csv=False)
    cli.run_command(cfg, buf)
    assert "sign_ok=false" in buf.getvalue()
    assert "authoritative" in buf.getvalue()

    # internal consistency between the region, threshold and closed-form paths
    reg1 = region_spec(eq30_spec)
    sup_lin = sup_linear(reg1)
    assert 0.5 * sup_lin.value == pytest.approx(k, abs=1e-6)
    for row in rows:
        h_direct = ((threshold_p(row.p) / eq30.T - k) ** 2 / ce) ** row.p
        assert row.h == pytest.approx(h_direct, rel=1e-6)
    sup1 = sup_xy(reg1)
    assert sup1.value == pytest.approx(x1 * y1, abs=1e-6)
    ok(4, "direct test margins reproduce the derived values; note emitted")


def _three_orbits(eq30_spec, perturbed_spec, classical_spec):
    return [
        (eq30_spec, find_coexistence(eq30_spec, (2.0, 2.0))),
        (perturbed_spec, find_coexistence(perturbed_spec, (2.0, 2.0))),
        (classical_spec, find_coexistence(classical_spec, (0.7, 0.3))),
    ]


def test_criterion_05_membership(eq30_spec, perturbed_spec, classical_spec):
    for spec, orbit in _three_orbits(eq30_spec, perturbed_spec, classical_spec):
        report = verify_predictions(spec, orbit)
        for m in report.memberships:
            assert m.slack >= -1e-6, f"p={m.p}: slack {m.slack}"
            assert m.ok
    ok(5, "p-average membership holds on all three systems, slack >= -1e-6")


def test_criterion_06_component_bounds(eq30_spec, perturbed_spec, classical_spec):
    for spec, orbit in _three_orbits(eq30_spec, perturbed_spec, classical_spec):
        bounds = compute_uv(spec)
        u_max, v_max = orbit.component_max()
        assert u_max <= bounds.U + 1e-6
        assert v_max <= bounds.V + 1e-6
    ok(6, "orbit suprema bounded by (U, V) + 1e-6 on all three systems")


def test_criterion_07_floquet_and_uniqueness(eq30_spec):
    orbit = find_coexistence(eq30_spec, (2.0, 2.0))
    flo = floquet(orbit)
    assert flo.classification == ASYMPTOTICALLY_STABLE

    det = np.linalg.det(orbit.monodromy)
    ref = liouville_determinant(eq30_spec, orbit)
    assert abs(det - ref) <= 1e-6 * abs(ref)

    orbits = find_coexistence_multistart(eq30_spec)  # 20 random starts, seed 0
    assert len(orbits) == 1  # distinct orbits are kept at distance >= 1e-6

    assert condition18(eq30_spec).passed and condition19(eq30_spec).passed
    ok(7, f"stable orbit, det(M) matches trace integral, {20} starts -> 1 orbit")


def test_criterion_08_logistic_identity():
    rng = np.random.default_rng(2024)
    done = 0
    while done < 10:
        c0 = rng.uniform(0.3, 2.0)
        growth = TRIG(c0, [(1, rng.uniform(-1, 1) * c0, rng.uniform(-1, 1) * c0),
                           (3, 0.2 * rng.uniform(-1, 1) * c0, 0.0)])
        if growth.mean <= 0:
            continue
        b0 = rng.uniform(0.5, 2.0)
        damping = TRIG(b0, [(2, rng.uniform(-0.4, 0.4) * b0,
                             rng.uniform(-0.4, 0.4) * b0)])
        T = rng.uniform(0.5, 2.5)
        orbit = periodic_logistic(growth, damping, T)
        assert weighted_average(damping, orbit) == pytest.approx(growth.mean, abs=1e-8)
        done += 1
    ok(8, "avg(damping * orbit) = mean growth within 1e-8 on 10 random pairs")


def test_criterion_09_region_oracle(eq30_spec):
    for p in (1.5, 2.0, 4.0):
        reg = region_spec(eq30_spec).at(p)
        res = sup_xy(reg)
        xmax, ymax = envelope(reg)
        ref, _ = grid_supxy(reg, xmax, ymax)
        assert ref is not None
        assert abs(res.value - ref) <= 1e-4 * ref

    reg_inf = region_spec(eq30_spec).at(INF)
    res_inf = sup_xy(reg_inf)
    assert res_inf.value == reg_inf.bounds.U * reg_inf.bounds.V

    for p in (1.0, 2.0, 10.0, 100.0):
        reg = figure_region(p)
        res = sup_xy(reg)
        assert not res.empty
        xmax, ymax = envelope(reg)
        assert math.isfinite(res.value) and 0 < res.value <= xmax * ymax
    ok(9, "supremum matches the refined grid scan; box corner exact; "
          "parameter-study regions nonempty and bounded")


def test_criterion_10_endpoint_reductions(eq30_spec):
    res1 = intertwined_test(eq30_spec, 1.0)
    reg1 = region_spec(eq30_spec)
    T = eq30_spec.T
    c_max = stats(eq30_spec.c, T).maximum
    e_max = stats(eq30_spec.e, T).maximum
    b_max = stats(eq30_spec.b, T).maximum
    f_max = stats(eq30_spec.f, T).maximum
    direct1 = T * (math.sqrt(c_max * e_max * sup_xy(reg1).value)
                   + 0.5 * sup_linear(reg1).value)
    assert abs(res1.lhs - direct1) <= 1e-12
    assert abs(res1.rhs - 2.0) <= 1e-12

    res_inf = weak_intertwined_test(eq30_spec, INF)
    bounds = compute_uv(eq30_spec)
    direct_inf = T * (math.sqrt(c_max * e_max * bounds.U * bounds.V)
                      + 0.5 * (b_max * bounds.U + f_max * bounds.V))
    assert abs(res_inf.lhs - direct_inf) <= 1e-12
    assert abs(res_inf.rhs - math.pi) <= 1e-12
    ok(10, "p=1 and p=inf reductions agree with the endpoint formulas to 1e-12")


def test_criterion_11_short_period_positive_path(eq30_spec_t01, monkeypatch):
    res = intertwined_test(eq30_spec_t01, INF)
    assert res.passed
    assert res.lhs == pytest.approx(0.3143, abs=1e-3)
    assert res.lhs <= math.pi

    monkeypatch.setattr(simulate, "MULTISTART_STARTS", 10)
    orbits = find_coexistence_multistart(eq30_spec_t01)
    assert len(orbits) == 1
    flo = floquet(orbits[0])
    assert flo.classification == ASYMPTOTICALLY_STABLE
    ok(11, f"T=0.1 test passes (lhs={res.lhs:.4f} <= pi) and the orbit is "
           "Floquet-stable")


def test_criterion_12_interior_exponent_certifies(tmp_path):
    # a constant system that only an interior exponent certifies: condition
    # 19 fails, and the direct test fails at both ends p = 1 and p = inf but
    # passes at p = 1.5, 2 and 3 (best at 2); the other two exponent tests
    # fail at every p
    spec = const_spec(T=0.53044, a=1.48869, b=0.08683, c=0.07412, d=0.74638, e=0.44884,
                      f=0.33023)
    grid = (1.0, 1.5, 2.0, 3.0, INF)
    report = scan_p(spec, grid)
    passed = {(res.name, res.p): res.passed for res in report.results}
    assert passed[("condition18", None)] and not passed[("condition19", None)]
    assert [passed[("intertwined", p)] for p in grid] == [False, True, True, True, False]
    assert not any(passed[(name, p)] for name in ("unified_lp", "weak_intertwined") for p in grid)
    assert report.conclusion == UNIQUE_ASYMPTOTICALLY_STABLE
    assert report.best_p == 2.0

    path = tmp_path / "interior.cfg"
    path.write_text(format_config(spec))
    out = io.StringIO()
    code = cli.run_command(cli.RunConfig(command="analyze", system_file=path, p_list=grid,
                                         output_dir=tmp_path, emit_csv=False), out)
    assert code == 0
    assert "best exponent: p = 2\n" in out.getvalue()

    orbits = find_coexistence_multistart(spec)
    assert len(orbits) == 1
    assert floquet(orbits[0]).classification == ASYMPTOTICALLY_STABLE
    ok(12, "18/19 and both endpoint tests fail; p = 1.5, 2, 3 certify; one stable orbit")
