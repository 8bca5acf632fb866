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

The shared inputs come from one :class:`SystemSummary` per system, which
also holds the norm envelopes at every exponent of the grid; per
exponent, the threshold and the supremum of x*y over the p-region are
computed once and shared by the three tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import jfunc
from .coeffs import SystemSpec, ratio_extrema
from .existence import BORDERLINE_TOL, BoundaryClassification
from .region import SupResult, sup_linear, sup_xy
from .summary import SystemSummary, summarize

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
    lo = -ratio_extrema(spec.e, spec.b, spec.T)[0]
    hi = ratio_extrema(spec.f, spec.c, spec.T)[0]
    slack_lo = ratio - lo
    slack_hi = hi - ratio
    if slack_lo <= slack_hi:
        return _result("condition18", None, lhs=lo, rhs=ratio, strict=True)
    return _result("condition18", None, lhs=ratio, rhs=hi, strict=True)


def condition19(spec: SystemSpec) -> TestResult:
    """min(b/e) > max(c/f), strictly; implies at most one coexistence state."""
    lhs = ratio_extrema(spec.c, spec.f, spec.T)[1]
    rhs = ratio_extrema(spec.b, spec.e, spec.T)[0]
    return _result("condition19", None, lhs=lhs, rhs=rhs, strict=True)


def _intertwined(name: str, summary: SystemSummary, p: float, sxy: SupResult,
                 slin: SupResult, threshold: float) -> TestResult:
    diags = []
    if not summary.classification.coexistence_exists:
        diags.append("vacuous: no coexistence state exists")
    if sxy.empty or slin.empty:
        diags.append("empty region: vacuously satisfied")
        return _result(name, p, lhs=0.0, rhs=threshold, diagnostics=diags)
    r1 = summary.region1
    lhs = summary.spec.T * (math.sqrt(max(r1.c_max * r1.e_max * sxy.value, 0.0))
                            + 0.5 * slin.value)
    return _result(name, p, lhs=lhs, rhs=threshold, diagnostics=diags)


def _exponent_tests(summary: SystemSummary, p: float) -> tuple[TestResult, TestResult, TestResult]:
    """The unified L^p, intertwined and weak intertwined tests at exponent p.

    unified_lp:        lhs = T**(1/q) * sqrt(c_max*e_max*alpha_p*beta_p)
                             + (1/2) * (b_max*alpha_1 + f_max*beta_1),
                       with alpha/beta the independent norm envelopes of
                       the two components;
    intertwined:       lhs = T * ( sqrt(c_max*e_max * sup(x*y over the p-region))
                                   + (1/2) * sup(b_max*x + f_max*y over the 1-region) );
    weak_intertwined:  the same with both suprema over the p-region.

    Each is compared with the p-threshold.  An empty region is a vacuous
    pass: no coexistence state can exist.  The threshold, the x*y supremum
    and the p-region, searched once for both suprema, are shared.
    """
    spec, r1 = summary.spec, summary.region1
    threshold = jfunc.threshold_p(p)

    alpha_p, beta_p = summary.envelopes[p]
    alpha_1, beta_1 = summary.envelopes[1.0]
    tq = spec.T ** (1.0 / jfunc.conjugate(p))  # T^0 = 1 when q is infinite
    lhs = tq * math.sqrt(max(r1.c_max * r1.e_max * alpha_p * beta_p, 0.0)) \
        + 0.5 * (r1.b_max * alpha_1 + r1.f_max * beta_1)
    unified = _result("unified_lp", p, lhs=lhs, rhs=threshold)

    rp = r1.at(p)
    sxy = sup_xy(rp)
    slin_p = summary.sup_linear1 if p == 1.0 else sup_linear(rp)
    return (unified,
            _intertwined("intertwined", summary, p, sxy, summary.sup_linear1, threshold),
            _intertwined("weak_intertwined", summary, p, sxy, slin_p, threshold))


def unified_lp_test(spec: SystemSpec, p: float) -> TestResult:
    """Norm-envelope test at exponent p (see :func:`_exponent_tests`)."""
    return _exponent_tests(summarize(spec, (p,)), p)[0]


def intertwined_test(spec: SystemSpec, p: float) -> TestResult:
    """Region-coupled test at exponent p (see :func:`_exponent_tests`)."""
    return _exponent_tests(summarize(spec, (p,)), p)[1]


def weak_intertwined_test(spec: SystemSpec, p: float) -> TestResult:
    """Variant with both suprema over the same p-region."""
    return _exponent_tests(summarize(spec, (p,)), p)[2]


@dataclass(frozen=True)
class StabilityReport:
    """Everything the scan over exponents produced."""

    classification: BoundaryClassification
    results: tuple[TestResult, ...]
    best_p: Optional[float]
    conclusion: str


def scan_p(spec: SystemSpec, grid: Sequence[float]) -> StabilityReport:
    """Run every criterion over a grid of exponents and rank the outcome.

    Conclusion priority: both strict conditions passing dominates, then any
    exponent-test pass, then inconclusive; systems without coexistence
    states are reported as such regardless of test outcomes.
    """
    if not grid:
        raise ValueError("exponent grid must be nonempty")
    summary = summarize(spec, grid)
    cls = summary.classification
    r18 = condition18(spec)
    r19 = condition19(spec)
    results: list[TestResult] = [r18, r19]
    best_p: Optional[float] = None
    best_margin = -math.inf
    any_lp_pass = False
    for p in grid:
        for res in _exponent_tests(summary, p):
            results.append(res)
            if res.passed:
                any_lp_pass = True
                if res.margin > best_margin:
                    best_margin = res.margin
                    best_p = p

    if not cls.coexistence_exists:
        conclusion = NO_COEXISTENCE
    elif r18.passed and r19.passed:
        conclusion = GLOBALLY_STABLE_VIA_18_19
    elif any_lp_pass:
        conclusion = UNIQUE_ASYMPTOTICALLY_STABLE
    else:
        conclusion = INCONCLUSIVE

    return StabilityReport(
        classification=cls,
        results=tuple(results),
        best_p=best_p,
        conclusion=conclusion,
    )
