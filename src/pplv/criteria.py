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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import jfunc
from .coeffs import SystemSpec, lp_norm, ratio_extrema, stats
from .existence import BoundaryClassification, classify_boundary
from .region import region_spec, sup_linear, sup_xy

BORDERLINE_TOL = 1e-12

NO_COEXISTENCE = "no_coexistence"
GLOBALLY_STABLE_VIA_18_19 = "globally_stable_via_18_19"
UNIQUE_ASYMPTOTICALLY_STABLE = "unique_asymptotically_stable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TestResult:
    """Outcome of one criterion: lhs vs rhs with margin = rhs - lhs."""

    name: str
    p: Optional[float]
    q: Optional[float]
    lhs: float
    rhs: float
    margin: float
    passed: bool
    diagnostics: tuple[str, ...] = ()


def _result(name: str, p: Optional[float], lhs: float, rhs: float,
            strict: bool = False, diagnostics: Sequence[str] = ()) -> TestResult:
    margin = rhs - lhs
    diags = list(diagnostics)
    if abs(margin) <= BORDERLINE_TOL:
        diags.append("borderline")
    passed = margin > 0.0 if strict else margin >= 0.0
    q = None if p is None else jfunc.conjugate(p)
    if q is not None and math.isfinite(q) and q > 1e6:
        diags.append("conjugate exponent treated as infinite")
    return TestResult(name=name, p=p, q=q, lhs=lhs, rhs=rhs,
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


def _norm_envelopes(spec: SystemSpec, p: float) -> tuple[float, float]:
    # alpha_p = ||a||_p / b_min,  beta_p = ||d||_p / f_min + (e_max/f_min) * alpha_p
    b_min = stats(spec.b, spec.T).minimum
    f_min = stats(spec.f, spec.T).minimum
    e_max = stats(spec.e, spec.T).maximum
    alpha = lp_norm(spec.a, spec.T, p) / b_min
    beta = lp_norm(spec.d, spec.T, p) / f_min + (e_max / f_min) * alpha
    return alpha, beta


def unified_lp_test(spec: SystemSpec, p: float) -> TestResult:
    """Norm-envelope test at exponent p.

    lhs = T**(1/q) * sqrt(c_max*e_max*alpha_p*beta_p)
          + (1/2) * (b_max*alpha_1 + f_max*beta_1)
    against the p-threshold, with alpha/beta the independent norm
    envelopes of the two components.
    """
    q = jfunc.conjugate(p)
    T = spec.T
    c_max = stats(spec.c, T).maximum
    e_max = stats(spec.e, T).maximum
    b_max = stats(spec.b, T).maximum
    f_max = stats(spec.f, T).maximum
    alpha_p, beta_p = _norm_envelopes(spec, p)
    alpha_1, beta_1 = _norm_envelopes(spec, 1.0)
    tq = T ** (1.0 / q)  # T^0 = 1 when q is infinite
    lhs = tq * math.sqrt(max(c_max * e_max * alpha_p * beta_p, 0.0)) \
        + 0.5 * (b_max * alpha_1 + f_max * beta_1)
    return _result("unified_lp", p, lhs=lhs, rhs=jfunc.threshold_p(p))


def _coexistence_diagnostics(spec: SystemSpec) -> tuple[str, ...]:
    cls = classify_boundary(spec)
    if not cls.coexistence_exists:
        return ("vacuous: no coexistence state exists",)
    return ()


def _intertwined(name: str, spec: SystemSpec, p: float, p_linear: float) -> TestResult:
    diags = list(_coexistence_diagnostics(spec))
    T = spec.T
    c_max = stats(spec.c, T).maximum
    e_max = stats(spec.e, T).maximum
    b_max = stats(spec.b, T).maximum
    f_max = stats(spec.f, T).maximum
    rp = region_spec(spec, p)
    r_lin = rp if p_linear == p else region_spec(spec, p_linear)
    sxy = sup_xy(rp)
    slin = sup_linear(r_lin, b_max, f_max)
    rhs = jfunc.threshold_p(p)
    if sxy.empty or slin.empty:
        diags.append("empty region: vacuously satisfied")
        return _result(name, p, lhs=0.0, rhs=rhs, diagnostics=diags)
    lhs = T * (math.sqrt(max(c_max * e_max * sxy.value, 0.0)) + 0.5 * slin.value)
    return _result(name, p, lhs=lhs, rhs=rhs, diagnostics=diags)


def intertwined_test(spec: SystemSpec, p: float) -> TestResult:
    """Region-coupled test at exponent p.

    lhs = T * ( sqrt(c_max*e_max * sup(x*y over the p-region))
                + (1/2) * sup(b_max*x + f_max*y over the 1-region) ).
    An empty region is a vacuous pass: no coexistence state can exist.
    """
    return _intertwined("intertwined", spec, p, 1.0)


def weak_intertwined_test(spec: SystemSpec, p: float) -> TestResult:
    """Variant with both suprema over the same p-region."""
    return _intertwined("weak_intertwined", spec, p, p)


@dataclass(frozen=True)
class StabilityReport:
    """Everything the scan over exponents produced."""

    classification: BoundaryClassification
    uniqueness_18_19: tuple[bool, bool]
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
    cls = classify_boundary(spec)
    r18 = condition18(spec)
    r19 = condition19(spec)
    results: list[TestResult] = [r18, r19]
    best_p: Optional[float] = None
    best_margin = -math.inf
    any_lp_pass = False
    for p in grid:
        for res in (unified_lp_test(spec, p), intertwined_test(spec, p),
                    weak_intertwined_test(spec, p)):
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
        uniqueness_18_19=(r18.passed, r19.passed),
        results=tuple(results),
        best_p=best_p,
        conclusion=conclusion,
    )
