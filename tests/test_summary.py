import math
import sys
from collections import Counter

import pytest

import pplv.coeffs
import pplv.existence
import pplv.jfunc
import pplv.logistic
import pplv.region
from pplv.coeffs import PeriodicCoefficient, SystemSpec
from pplv.criteria import intertwined_test, scan_p, unified_lp_test, weak_intertwined_test
from pplv.jfunc import INF
from pplv.region import region_spec, sup_linear
from pplv.summary import norm_envelopes, summarize

C = PeriodicCoefficient.constant
TRIG = PeriodicCoefficient.trig

GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, INF)


@pytest.fixture(scope="module")
def two_harmonic_spec():
    """All-trig system with two harmonics and a coexistence state."""
    return SystemSpec(T=1.5, a=TRIG(1.5, [(1, 0.4, 0.1), (2, 0.0, 0.3)]),
                      b=TRIG(1.0, [(1, 0.2, 0.0)]), c=TRIG(0.6, [(2, 0.0, 0.1)]),
                      d=TRIG(0.4, [(1, 0.1, 0.2), (2, 0.15, 0.0)]),
                      e=TRIG(0.8, [(1, 0.0, 0.2)]), f=TRIG(1.2, [(2, 0.3, 0.1)]))


def _count_calls(monkeypatch, originals) -> Counter:
    """Wrap each function in every pplv namespace that holds it; count calls."""
    counts: Counter = Counter()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        wrapper = wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pplv" and not mod_name.startswith("pplv."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


def test_scan_p_computes_each_per_system_quantity_once(monkeypatch, two_harmonic_spec):
    counts = _count_calls(monkeypatch, {
        "_feasible_end": pplv.region._feasible_end,
        "_root_times": pplv.coeffs._root_times,
        "classify_boundary": pplv.existence.classify_boundary,
        "lp_norm": pplv.coeffs.lp_norm,
        "periodic_logistic": pplv.logistic.periodic_logistic,
        "region_spec": pplv.region.region_spec,
        "sup_xy": pplv.region.sup_xy,
        "threshold_p": pplv.jfunc.threshold_p,
    })
    report = scan_p(two_harmonic_spec, GRID)
    assert report.classification.coexistence_exists
    assert counts["classify_boundary"] == 1
    # one lp_norm call each for a and d, which finds the zeros of the
    # coefficient and of its derivative once for the whole grid
    assert counts["lp_norm"] == 2
    assert counts["_root_times"] <= 22
    assert counts["periodic_logistic"] <= 2
    assert counts["region_spec"] == 1
    assert counts["sup_xy"] == len(GRID)
    assert counts["threshold_p"] == len(GRID)
    # one search of each finite-p region, whose two ends bound both suprema
    assert counts["_feasible_end"] == 2 * sum(p != INF for p in GRID)


@pytest.mark.parametrize("name", ["two_harmonic_spec", "eq30_spec", "classical_spec",
                                  "saddle_spec", "eq30_spec_t01"])
def test_public_tests_equal_scan_results(request, name):
    spec = request.getfixturevalue(name)
    report = scan_p(spec, GRID)
    by_key = {(res.name, res.p): res for res in report.results}
    for p in GRID:
        assert unified_lp_test(spec, p) == by_key["unified_lp", p]
        assert intertwined_test(spec, p) == by_key["intertwined", p]
        assert weak_intertwined_test(spec, p) == by_key["weak_intertwined", p]


def test_region_at_matches_region_spec(two_harmonic_spec):
    region1 = region_spec(two_harmonic_spec, 1.0)
    for p in GRID:
        assert region1.at(p) == region_spec(two_harmonic_spec, p)
    with pytest.raises(ValueError):
        region1.at(0.5)
    with pytest.raises(ValueError):
        region1.at(math.nan)


def test_summary_holds_the_p1_quantities(two_harmonic_spec):
    summary = summarize(two_harmonic_spec, GRID)
    r1 = summary.region1
    assert r1 == region_spec(two_harmonic_spec, 1.0)
    assert summary.sup_linear1 == sup_linear(r1)
    assert summary.envelopes == norm_envelopes(two_harmonic_spec, r1, GRID)
    assert list(summary.envelopes) == list(GRID)
    # p = 1 is always held: the unified test reads alpha_1 and beta_1
    assert summarize(two_harmonic_spec, (2.0,)).envelopes[1.0] == summary.envelopes[1.0]
    assert summary.classification.coexistence_exists
