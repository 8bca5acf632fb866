"""Uniqueness and stability criteria for coexistence states.

Four families of tests are evaluated:

* conditions18/19 — the classical strict-inequality pair; both passing
  implies exactly one coexistence state, globally asymptotically stable;
* unified_lp_test — the norm-envelope test, with each component bounded
  independently of the other;
* intertwined_test — couples the supremum of x*y over the p-region with
  the linear supremum over the p = 1 region;
* weak_intertwined_test — both suprema taken over the same p-region.

Passing any of the latter three at some p implies the coexistence state is
unique and asymptotically stable.

:func:`scan_p` evaluates all of them over an exponent grid.  The
coefficient extrema and the bounds U, V come from the system itself
(``SystemSpec.extrema`` and ``bounds``); the boundary classification,
the p = 1 region, its linear supremum and the norm envelopes are
computed once per scan, and per exponent the threshold and the supremum
of x*y over the p-region are shared by the three tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import jfunc
from .coeffs import SystemSpec, lp_norm, ratio_extrema
from .existence import BORDERLINE_TOL, BoundaryClassification, classify_boundary
from .region import region_spec, sup_linear, sup_xy

NO_COEXISTENCE = "no_coexistence"
GLOBALLY_STABLE_VIA_18_19 = "globally_stable_via_18_19"
UNIQUE_ASYMPTOTICALLY_STABLE = "unique_asymptotically_stable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TestResult:
    """Outcome of one criterion: lhs vs rhs with margin = rhs - lhs."""

    name: str
    p: Optional[float]
    lhs: float
    rhs: float
    margin: float
    passed: bool
    diagnostics: tuple[str, ...] = ()


def _result(name: str, p: Optional[float], lhs: float, rhs: float,
            strict: bool = False, diagnostics: Sequence[str] = ()) -> TestResult:
    diags = list(diagnostics)
    if not math.isfinite(lhs):
        # an overflowed supremum times an underflowed coefficient product
        # gives NaN: no finite bound on the lhs is known, so the test fails
        diags.append("lhs is not finite")
        lhs = math.inf
    margin = rhs - lhs
    if abs(margin) <= BORDERLINE_TOL:
        diags.append("borderline")
    passed = margin > 0.0 if strict else margin >= 0.0
    return TestResult(name=name, p=p, lhs=lhs, rhs=rhs,
                      margin=margin, passed=passed, diagnostics=tuple(diags))


def condition18(spec: SystemSpec) -> TestResult:
    """abar > 0 and -min(e/b) < dbar/abar < min(f/c), strictly."""
    abar = spec.a.mean
    if abar <= 0:
        return _result("condition18", None, lhs=0.0, rhs=abar, strict=True,
                       diagnostics=("mean of a is not positive",))
    ratio = spec.d.mean / abar
    lo = -ratio_extrema(spec, "e", "b")[0]
    hi = ratio_extrema(spec, "f", "c")[0]
    slack_lo = ratio - lo
    slack_hi = hi - ratio
    if slack_lo <= slack_hi:
        return _result("condition18", None, lhs=lo, rhs=ratio, strict=True)
    return _result("condition18", None, lhs=ratio, rhs=hi, strict=True)


def condition19(spec: SystemSpec) -> TestResult:
    """min(b/e) > max(c/f), strictly; implies at most one coexistence state."""
    lhs = ratio_extrema(spec, "c", "f")[1]
    rhs = ratio_extrema(spec, "b", "e")[0]
    return _result("condition19", None, lhs=lhs, rhs=rhs, strict=True)


def unified_lp_test(spec: SystemSpec, p: float) -> TestResult:
    """Norm-envelope test at exponent p (see :func:`scan_p`)."""
    return scan_p(spec, (p,)).results[2]


def intertwined_test(spec: SystemSpec, p: float) -> TestResult:
    """Region-coupled test at exponent p (see :func:`scan_p`)."""
    return scan_p(spec, (p,)).results[3]


def weak_intertwined_test(spec: SystemSpec, p: float) -> TestResult:
    """Variant with both suprema over the same p-region (see :func:`scan_p`)."""
    return scan_p(spec, (p,)).results[4]


@dataclass(frozen=True)
class StabilityReport:
    """Everything the scan over exponents produced."""

    classification: BoundaryClassification
    results: tuple[TestResult, ...]
    best_p: Optional[float]
    conclusion: str


def scan_p(spec: SystemSpec, grid: Sequence[float]) -> StabilityReport:
    """Run every criterion over a grid of exponents and rank the outcome.

    ``results`` holds condition18 and condition19, then, for each p of the
    grid, the three exponent tests

    unified_lp:        lhs = T**(1/q) * sqrt(c_max*e_max*alpha_p*beta_p)
                             + (1/2) * (b_max*alpha_1 + f_max*beta_1),
                       with alpha_p = ||a||_p / b_min and
                       beta_p = ||d||_p / f_min + (e_max/f_min) * alpha_p
                       the independent norm envelopes of the two components;
    intertwined:       lhs = T * ( sqrt(c_max*e_max * sup(x*y over the p-region))
                                   + (1/2) * sup(b_max*x + f_max*y over the 1-region) );
    weak_intertwined:  the same with both suprema over the p-region.

    Each is compared with the p-threshold.  An empty region is a vacuous
    pass: no coexistence state can exist.  The boundary classification,
    the p = 1 region with its linear supremum, and the norm envelopes
    (one :func:`lp_norm` call each for a and d, which evaluates its
    coefficient once per quadrature level for the whole grid) are
    computed once per call; per exponent, the threshold, the p-region
    (searched once for both suprema) and its x*y supremum are shared by
    the three tests.

    Conclusion priority: both strict conditions passing dominates, then any
    exponent-test pass, then inconclusive; systems without coexistence
    states are reported as such regardless of test outcomes.
    """
    if not grid:
        raise ValueError("exponent grid must be nonempty")
    region1 = region_spec(spec)
    cls = classify_boundary(spec)
    slin1 = sup_linear(region1)
    # every unified test reads the p = 1 envelopes beside its own
    ps = tuple(dict.fromkeys((1.0, *grid)))
    envelopes = {}
    for p, norm_a, norm_d in zip(ps, lp_norm(spec.a, spec.T, ps), lp_norm(spec.d, spec.T, ps)):
        alpha = norm_a / region1.b_min
        envelopes[p] = alpha, norm_d / region1.f_min + (region1.e_max / region1.f_min) * alpha
    ce = region1.c_max * region1.e_max
    alpha_1, beta_1 = envelopes[1.0]
    linear1 = 0.5 * (region1.b_max * alpha_1 + region1.f_max * beta_1)

    results = [condition18(spec), condition19(spec)]
    for p in grid:
        threshold = jfunc.threshold_p(p)
        alpha_p, beta_p = envelopes[p]
        tq = spec.T ** (1.0 / jfunc.conjugate(p))  # T^0 = 1 when q is infinite
        lhs = tq * math.sqrt(max(ce * alpha_p * beta_p, 0.0)) + linear1
        results.append(_result("unified_lp", p, lhs=lhs, rhs=threshold))
        rp = region1.at(p)
        sxy = sup_xy(rp)
        for name, slin in (("intertwined", slin1),
                           ("weak_intertwined", slin1 if p == 1.0 else sup_linear(rp))):
            diags = [] if cls.coexistence_exists else ["vacuous: no coexistence state exists"]
            if sxy.empty or slin.empty:
                diags.append("empty region: vacuously satisfied")
                lhs = 0.0
            else:
                lhs = spec.T * (math.sqrt(max(ce * sxy.value, 0.0)) + 0.5 * slin.value)
            results.append(_result(name, p, lhs=lhs, rhs=threshold, diagnostics=diags))
    r18, r19 = results[:2]
    # the first of the largest passing margins gives best_p
    passing = [res for res in results[2:] if res.passed]
    best_p = max(passing, key=lambda res: res.margin).p if passing else None

    if not cls.coexistence_exists:
        conclusion = NO_COEXISTENCE
    elif r18.passed and r19.passed:
        conclusion = GLOBALLY_STABLE_VIA_18_19
    elif passing:
        conclusion = UNIQUE_ASYMPTOTICALLY_STABLE
    else:
        conclusion = INCONCLUSIVE

    return StabilityReport(
        classification=cls,
        results=tuple(results),
        best_p=best_p,
        conclusion=conclusion,
    )
