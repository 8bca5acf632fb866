"""The admissible-average region and its boundary maximizers.

For each exponent p the p-averages of any coexistence state are confined
to a bounded planar region built from coefficient extrema and the a-priori
component bounds (U, V).  For finite p the region is cut out of the closed
quadrant by four inequalities; for p = inf it degenerates to the box
(0, U] x (0, V].  The stability tests need the suprema of x*y and of
b_max*x + f_max*y over these regions.  For finite p the region is convex:
its top is min(top_a, top_d), where top_a decreases and top_d increases,
so they cross once, at x_c.  Both objectives grow along top_d, so each
supremum lies on top_a, at the maximiser that Lagrange's condition gives
in closed form, clamped to the x-interval of the region.  That interval
and x_c are scalar roots, found once per region and shared by both
suprema.

The extrema and (U, V) are those a :class:`SystemSpec` keeps
(``extrema``, ``bounds``).  :func:`region_spec` builds the p = 1 region
from them, and :meth:`RegionSpec.at` every other region of the system.

The box is a valid but coarser enclosure than the finite-p regions, which
approach it at the rate |log(abar/U)|/p.  Every finite-p region can be
empty while the box is not: on the generated system analyze_trig/3/42
(perfbench) the p = inf region is the whole box.  An empty region means
that no coexistence state exists, so the two disagree only then.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .coeffs import RegionBounds, SystemSpec, compute_uv  # noqa: F401 (region.compute_uv)
from .jfunc import INF, check_exponent

BOUNDARY_TOL = 1e-9


class _Slices(NamedTuple):
    """Where the suprema over a region lie: the x-interval (x_a, x_b) of its
    non-empty slices and the x_c from which top_a is the top (x_c is the
    crossing of the two top curves when ``crossing``, else the end of the
    x-range that one top curve spans), or the one ``point`` every supremum
    takes (the box corner at p = inf, a touching point, or NaN if the
    x-range overflows)."""

    degenerate: bool
    point: Optional[tuple[float, float]] = None
    interval: tuple[float, float] = (math.nan, math.nan)
    x_c: float = math.nan
    crossing: bool = False


@dataclass(frozen=True)
class RegionSpec:
    """Everything that defines the admissible region for one exponent p.

    Holds the coefficient means (abar, dbar), the extrema of the four
    positive coefficients, and the component bounds.  Constructed at p = 1
    from a SystemSpec via :func:`region_spec`, or directly for freestanding
    parameter studies.  Only p varies between the regions of one system,
    so :meth:`at` derives each of them from the p = 1 region.
    """

    p: float
    abar: float
    dbar: float
    b_min: float
    b_max: float
    c_min: float
    c_max: float
    e_min: float
    e_max: float
    f_min: float
    f_max: float
    bounds: RegionBounds

    def __post_init__(self) -> None:
        check_exponent(self.p)
        for lo, hi, name in (
            (self.b_min, self.b_max, "b"),
            (self.c_min, self.c_max, "c"),
            (self.e_min, self.e_max, "e"),
            (self.f_min, self.f_max, "f"),
        ):
            if lo > hi:
                raise ValueError(f"{name}: min {lo} exceeds max {hi}")

    def at(self, p: float) -> "RegionSpec":
        """The region of the same system at exponent ``p``; ``self`` if p is its own."""
        return self if p == self.p else dataclasses.replace(self, p=p)

    @functools.cached_property
    def _slices(self) -> Optional[_Slices]:
        """Where the slices are non-empty, found once per region; None if empty.

        For p >= 1 each of the four constraints is a convex function bounded
        by a constant, so the region is convex and its slice gap
        g = min(top_a, top_d) - max(lo_a, lo_d, 0) is concave in x.  Its
        maximum lies at x_c (top_a = top_d), at the bottom's kink x_e
        (lo_a = max(lo_d, 0)), or where the one smooth pair of curves
        active between the two is stationary; each is a scalar root
        (:func:`_root`).  The band is BOUNDARY_TOL times the y-ceiling
        top_a(0), in units of y, so that the flags do not change with the
        unit of y.  Below -band the region is empty, within band of zero it
        is degenerate, and a slightly negative widest slice is taken as the
        point where the region touches.  The quadrant is closed: a point or
        segment on an axis is a region, but a top curve that is undefined
        there (p > 1, yhi < 0) is not.  Otherwise the ends x_a and x_b are the roots of g on
        either side of its maximum, by Newton from the ends of the x-range.
        """
        U, V = self.bounds.U, self.bounds.V
        if self.p == INF:
            return None if U <= 0 or V <= 0 else _Slices(False, (U, V))
        if self.abar <= 0 or (self.p != 1.0 and (U <= 0 or V <= 0)):
            return None
        # top_d is undefined left of -dbar/e_max once p > 1 (everywhere if
        # dbar < 0 = e_max, where the top is negative and the region empty)
        x_lo = (_axis_x(self, -self.dbar, self.e_max, False)
                if self.p != 1.0 and self.e_max > 0 else 0.0)
        x_hi = _x_ceiling(self)
        if x_lo > x_hi:
            return None
        if not math.isfinite(x_hi):
            # the x-range overflows: no finite bound on any objective is known
            return _Slices(False, (math.nan, math.nan))
        band = BOUNDARY_TOL * _curves(self, 0.0)[0]

        x_c, crossing = _top_crossing(self, x_lo, x_hi)
        x_e, kinked = _bottom_kink(self, x_lo, x_hi)
        x_m, ylo, yhi = max(((x, *_slice(self, x, crossing and x == x_c, kinked and x == x_e))
                             for x in _widest_slice_candidates(self, x_c, x_e)),
                            key=lambda widest: widest[2] - widest[1])
        gap_max = yhi - ylo
        if gap_max < -band:
            return None
        if gap_max < 0.0:
            # touching within tolerance: the region is the point of widest
            # slice, unless a top curve is undefined there (p > 1, yhi < 0)
            if yhi < 0 and self.p != 1.0:
                return None
            return _Slices(True, (x_m, max(0.5 * (ylo + yhi), 0.0)))
        # a degenerate region can still be a segment where two constraints
        # coincide, so its ends are found like any other's
        residual = functools.partial(_end_residual, self)
        ends = [(end, residual(end)) for end in (x_lo, x_hi)]
        interval = tuple(end if at_end[0] >= 0.0 else _root(residual, end, x_m, at_end)
                         for end, at_end in ends)
        return _Slices(gap_max <= band, interval=interval, x_c=x_c, crossing=crossing)


@dataclass(frozen=True)
class SupResult:
    """Supremum of a functional over the region.

    ``empty`` is a flagged state, not an error: an empty region means no
    coexistence state can exist.  ``degenerate`` marks regions that have
    collapsed to (numerically) zero width: a single point or a segment.
    A region whose x-range overflows the doubles has ``value`` inf and a
    NaN argmax.
    """

    value: float
    argmax: tuple[float, float]
    empty: bool
    degenerate: bool = False


def region_spec(spec: SystemSpec) -> RegionSpec:
    """The p = 1 region of a system, from its means, ``extrema`` and
    ``bounds``; ``region_spec(spec).at(p)`` is the region at exponent p."""
    sb, sc, se, sf = (spec.extrema[name] for name in "bcef")
    return RegionSpec(
        p=1.0,
        abar=spec.a.mean,
        dbar=spec.d.mean,
        b_min=sb.minimum, b_max=sb.maximum,
        c_min=sc.minimum, c_max=sc.maximum,
        e_min=se.minimum, e_max=se.maximum,
        f_min=sf.minimum, f_max=sf.maximum,
        bounds=spec.bounds,
    )


# ---------------------------------------------------------------------------
# Boundary curves.
#
# For finite p the four constraints, written with the overflow-safe ratio
# powers b_min*U*(x/U)**p etc., are (x, y > 0):
#
#   (1) b_min*U*(x/U)**p + c_min*V*(y/V)**p <= abar      (y <= top_a)
#   (2) abar <= b_max*x + c_max*y                        (y >= lo_a)
#   (3) -e_max*x + f_min*V*(y/V)**p <= dbar              (y <= top_d)
#   (4) dbar <= -e_min*U*(x/U)**p + f_max*y              (y >= lo_d)
#
# At p = 1 the U, V factors cancel and the raw linear forms are used, which
# keeps the p = 1 region meaningful even when U or V is non-positive.
# ---------------------------------------------------------------------------


def _power(x, scale: float, p: float):
    """The ratio power scale*(x/scale)**p of constraints (1), (3) and (4),
    on a float or an ndarray; x itself at p = 1."""
    return x if p == 1.0 else scale * (x / scale) ** p


def _ratio_root(num, coef: float, scale: float, p: float):
    """scale*|num/(coef*scale)|**(1/p), the x at which coef*scale*(x/scale)**p
    reaches |num|, on a float or an ndarray num.  Where coef*scale
    underflows to 0 it divides by the two factors in turn."""
    cs = coef * scale
    return scale * abs(num / cs if cs else num / coef / scale) ** (1.0 / p)


def _curves(region: RegionSpec, x: float | np.ndarray):
    """(top_a, lo_a, top_d, lo_d) at x, the boundaries of constraints (1)-(4),
    for a float x or an ndarray of x alike.

    Where the base of a top curve (rem or base below) is negative, the
    curve is undefined and takes the negative root
    -V*(|base|/(coef*V))**(1/p).  So a negative top marks an undefined one:
    the slices compare it with ylo >= 0, the touching test of ``_slices``
    rejects it, and ``boundary_points`` clamps it at 0.  Python's float
    power raises OverflowError where numpy returns inf, so scalar callers
    keep x within [0, _x_ceiling(region)]; array callers hold an
    ``np.errstate`` that silences overflow.
    """
    p = region.p
    lo_a = (region.abar - region.b_max * x) / region.c_max
    base = region.dbar + region.e_max * x
    if p == 1.0:
        top_a = (region.abar - region.b_min * x) / region.c_min
        return top_a, lo_a, base / region.f_min, (region.dbar + region.e_min * x) / region.f_max
    U, V = region.bounds.U, region.bounds.V
    powx = _power(x, U, p)
    rem = region.abar - region.b_min * powx
    top_a = ((rem >= 0) * 2.0 - 1.0) * _ratio_root(rem, region.c_min, V, p)
    top_d = ((base >= 0) * 2.0 - 1.0) * _ratio_root(base, region.f_min, V, p)
    return top_a, lo_a, top_d, (region.dbar + region.e_min * powx) / region.f_max


def _slice(region: RegionSpec, x: float, crossing: bool = False,
           kink: bool = False) -> tuple[float, float]:
    """Admissible y-interval (ylo, yhi) of the slice at x; empty if ylo > yhi.

    Where the two top curves cross at x (``crossing``), yhi is read from the
    flatter of them, whose value there is less sensitive to the rounding of
    x; so is ylo where lo_a meets max(lo_d, 0) (``kink``).
    """
    top_a, lo_a, top_d, lo_d = _curves(region, x)
    if crossing:
        yhi = top_a if abs(_slope(region, 0, x, top_a)) <= abs(_slope(region, 2, x, top_d)) else top_d
    else:
        yhi = min(top_a, top_d)
    if kink:
        d_other = _slope(region, 3, x, lo_d) if lo_d > 0 else 0.0
        return (lo_a if region.b_max / region.c_max <= abs(d_other) else max(lo_d, 0.0)), yhi
    return max(lo_a, lo_d, 0.0), yhi


def _axis_x(region: RegionSpec, value: float, coef: float, power: bool) -> Optional[float]:
    """Where a boundary curve meets y = 0: the x >= 0 at which coef*x, or
    its ratio power coef*U*(x/U)**p when ``power``, reaches ``value``; 0 if
    value <= 0, and None if coef <= 0, where it never does."""
    if value <= 0:
        return 0.0
    if coef <= 0:
        return None
    if not power or region.p == 1.0:
        return value / coef
    return _ratio_root(value, coef, region.bounds.U, region.p)


def _x_ceiling(region: RegionSpec) -> float:
    """Largest x admitted by constraint (1) at y = 0 (the x envelope)."""
    return _axis_x(region, region.abar, region.b_min, True)


# Position of each finite-p boundary curve in the tuple of _curves, by the
# label of its constraint among (1)-(4).
_CURVE_INDEX = {"a_lower": 0, "a_upper": 1, "d_lower": 2, "d_upper": 3}


def _constraint(region: RegionSpec, label: str, x, y):
    """Signed value of the labeled constraint among (1)-(4) at (x, y) for
    finite p, on scalars or arrays: non-negative where it holds, zero on its
    boundary curve.  Only the powers that constraint uses are taken, so a
    power that overflows in another constraint cannot raise here."""
    p, U, V = region.p, region.bounds.U, region.bounds.V
    if label == "a_upper":
        return region.b_max * x + region.c_max * y - region.abar
    if label == "a_lower":
        return region.abar - (region.b_min * _power(x, U, p) + region.c_min * _power(y, V, p))
    if label == "d_lower":
        return region.dbar - (-region.e_max * x + region.f_min * _power(y, V, p))
    if label == "d_upper":
        return -region.e_min * _power(x, U, p) + region.f_max * y - region.dbar
    raise ValueError(f"unknown boundary label {label!r}")


def cp_slack(region: RegionSpec, x: float, y: float) -> float:
    """Minimal slack of the defining inequalities at (x, y).

    Positive inside, negative outside; positivity of x and y themselves is
    not part of the slack, so callers check it apart.  A power (x/U)**p or
    (y/V)**p past the largest double puts the point outside: -inf.
    """
    U, V = region.bounds.U, region.bounds.V
    if region.p == INF:
        return min(U - x, V - y)
    if x < 0 or y < 0 or (region.p != 1.0 and (U <= 0 or V <= 0)):
        return -math.inf
    try:
        return min(_constraint(region, label, x, y) for label in _CURVE_INDEX)
    except OverflowError:
        return -math.inf


# Newton stops once a step moves x by at most _ROOT_RTOL relative to x, and
# each root takes at most _ROOT_STEPS steps, so abar = 1e308 still ends.
_ROOT_RTOL = 4.0 * math.ulp(1.0)
_ROOT_STEPS = 100


def _root(fn: Callable[[float], tuple[float, float]], outside: float, inside: float,
          at_outside: tuple[float, float]) -> float:
    """The root of ``fn`` between ``outside``, where fn < 0, and ``inside``,
    where fn >= 0.  ``fn`` returns its value and its Newton step
    value/slope, and ``at_outside`` is fn(outside).

    Newton steps start from ``outside``, where on a concave fn they near the
    root monotonically, and go on from the latest point, so that a root
    far smaller than ``outside`` is found to its own relative accuracy.
    A step past the inside end stops there.  A step that leaves the bracket,
    or that does not halve the step before the last, is replaced by the
    bracket's midpoint, formed so that it cannot overflow, and geometric
    where the bracket spans more than a factor of 4; a first step of zero,
    from an infinite slope, by one ulp.  The search stops once a step
    moves x by at most _ROOT_RTOL relative, or once a Newton step from
    outside brings fn no closer to zero, which on a concave fn only
    rounding does; after _ROOT_STEPS steps it returns the inside end.
    """
    x, (value, step) = outside, at_outside
    last = before_last = math.inf
    for _ in range(_ROOT_STEPS):
        lo, hi = min(outside, inside), max(outside, inside)
        newton = False
        if step == 0.0 and value < 0.0 and last == math.inf:
            # an infinite slope, as where a top curve meets y = 0
            x_new = math.nextafter(x, inside)
        else:
            x_new = x - step
            if value < 0.0 and (x_new - inside) * (inside - x) > 0.0:
                # past the inside end, as rounding takes a step to a root there
                x_new = inside
            newton = (lo <= x_new <= hi and 2.0 * abs(x_new - x) <= before_last
                      and (step != 0.0 or value >= 0.0))
            if not newton:
                x_new = math.sqrt(lo) * math.sqrt(hi) if 0.0 < 4.0 * lo < hi else 0.5 * lo + 0.5 * hi
            if abs(x_new - x) <= _ROOT_RTOL * abs(x_new):
                return x_new
        before_last, last = last, abs(x_new - x)
        at_new = fn(x_new)
        if newton and value < 0.0 and at_new[0] <= value:
            return x_new
        x, (value, step) = x_new, at_new
        if value >= 0.0:
            inside = x
        else:
            outside = x
    return inside


def _newton(value: float, slope: float) -> tuple[float, float]:
    """A value and its Newton step value/slope (NaN where the slope is 0)."""
    return value, value / slope if slope else math.nan


def _pow(base: float, exponent: float) -> float:
    """base**exponent for base >= 0, inf where Python's float power raises."""
    try:
        return base ** exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _power_term(region: RegionSpec, x: float) -> tuple[float, float]:
    """U*(x/U)**p, the term of x in constraints (1) and (4), and its slope."""
    p, U = region.p, region.bounds.U
    return _power(x, U, p), 1.0 if p == 1.0 else p * (x / U) ** (p - 1.0)


def _slope(region: RegionSpec, index: int, x: float, y: float) -> float:
    """Slope at x of the curve at ``index`` in the tuple of :func:`_curves`,
    whose value there is y.  The top curves' slopes are ratio powers of
    their values, -(b_min/c_min)*(x*V/(U*top_a))**(p-1) and
    (e_max/(p*f_min))*(V/top_d)**(p-1): infinite where a top curve meets
    y = 0 at p > 1."""
    p, U, V = region.p, region.bounds.U, region.bounds.V
    if index == 1:
        return -region.b_max / region.c_max
    if index == 3:
        return region.e_min * _power_term(region, x)[1] / region.f_max
    if index == 2 and region.e_max == 0:
        return 0.0
    if p == 1.0:
        ratio = 1.0
    elif y <= 0:
        ratio = math.inf
    else:
        ratio = _pow(x / U * (V / y) if index == 0 else V / y, p - 1.0)
    if index == 0:
        return -region.b_min / region.c_min * ratio
    return region.e_max / (p * region.f_min) * ratio


def _end_residual(region: RegionSpec, x: float) -> tuple[float, float]:
    """The slice gap at x, with the larger of two Newton steps towards its
    root: the gap's own, and that of the slack of constraints (1) and (3)
    at the bottom (x, ylo) of the slice, min(rem/c_min, base/f_min) -
    V*(ylo/V)**p, in the units of y at p = 1, where it is the gap itself.

    Both are concave and share their roots, so from outside neither step
    passes the root, and from inside both do.  The slack has no vertical
    tangent where a top curve meets y = 0, which stalls the gap's step at
    p > 1, and the gap does not grow like a p-th power where ylo > V, which
    slows the slack's.
    """
    curves = _curves(region, x)
    top, i = min((curves[0], 0), (curves[2], 2))
    ylo, j = max((curves[1], 1), (curves[3], 3), (0.0, -1))
    d_ylo = 0.0 if j < 0 else _slope(region, j, x, ylo)
    steps = [_newton(top - ylo, _slope(region, i, x, top) - d_ylo)[1]]
    p, V = region.p, region.bounds.V
    if p != 1.0:
        power, d_power = _power_term(region, x)
        rem = (region.abar - region.b_min * power) / region.c_min
        base = (region.dbar + region.e_max * x) / region.f_min
        slack, d_slack = min((rem, -region.b_min * d_power / region.c_min),
                             (base, region.e_max / region.f_min))
        steps.append(_newton(slack - V * _pow(ylo / V, p),
                             d_slack - p * _pow(ylo / V, p - 1.0) * d_ylo)[1])
    # from outside the larger step, from inside (past the root) the smaller
    steps = [step for step in steps if math.isfinite(step)] or [math.nan]
    return top - ylo, (min if top >= ylo else max)(steps, key=abs)


def _decreasing_root(fn: Callable[[float], tuple[float, float]], lo: float,
                     hi: float) -> tuple[float, bool]:
    """Where the decreasing ``fn`` crosses zero on [lo, hi], or the end
    nearest to it, and whether it crosses; by Newton from hi, which is
    monotone where fn is concave."""
    at_lo, at_hi = fn(lo), fn(hi)
    if at_lo[0] <= 0.0:
        return lo, at_lo[0] == 0.0
    if at_hi[0] >= 0.0:
        return hi, at_hi[0] == 0.0
    return _root(fn, hi, lo, at_hi), True


def _top_crossing(region: RegionSpec, x_lo: float, x_hi: float) -> tuple[float, bool]:
    """x_c, where top_a = top_d on [x_lo, x_hi], and whether they cross there.

    It is the root of h(x) = rem/c_min - base/f_min, the bases of the two
    roots, which is concave and decreasing.  Where h keeps one sign the end
    where the other top curve would begin is returned: x_lo when top_a is
    the whole top, x_hi when top_d is.
    """
    def h(x: float) -> tuple[float, float]:
        power, slope = _power_term(region, x)
        value = ((region.abar - region.b_min * power) / region.c_min
                 - (region.dbar + region.e_max * x) / region.f_min)
        return _newton(value, -region.b_min * slope / region.c_min - region.e_max / region.f_min)

    return _decreasing_root(h, x_lo, x_hi)


def _bottom_kink(region: RegionSpec, x_lo: float, x_hi: float) -> tuple[float, bool]:
    """x_e, where lo_a meets max(lo_d, 0) on [x_lo, x_hi], and whether they
    meet there.  lo_a meets y = 0 at abar/b_max; left of that, or of where
    it meets lo_d (a root of lo_a - lo_d, concave and decreasing), lo_a is
    the bottom."""
    b_max, c_max = region.b_max, region.c_max

    def kink(x: float) -> tuple[float, float]:
        power, slope = _power_term(region, x)
        value = (region.abar - b_max * x) / c_max - (region.dbar + region.e_min * power) / region.f_max
        return _newton(value, -b_max / c_max - region.e_min * slope / region.f_max)

    x_0 = _axis_x(region, region.abar, b_max, False)
    x_e, meets = _decreasing_root(kink, x_lo, min(max(x_0, x_lo), x_hi))
    return x_e, meets or x_e == x_0


def _widest_slice_candidates(region: RegionSpec, x_c: float, x_e: float) -> list[float]:
    """Points among which the concave gap takes its maximum on the x-range.

    Left of both x_c and the bottom's kink x_e the top rises and the bottom
    falls, right of both the reverse, so the maximum lies on the span
    between them, where one smooth pair of curves is active: top_a over
    lo_a (x_c < x_e), or top_d over lo_d once lo_d >= 0 (x_e < x_c).  The
    pair's stationary point is a closed form for the first and the root of
    their slope gap for the second.  At p = 1 both pairs are lines, so the
    span's ends suffice, and its midpoint stands for a pair of coincident
    lines (a segment region), whose ends may round below zero.
    """
    p = region.p
    if x_c <= x_e:
        lo, hi = x_c, x_e
    else:
        # where lo_d meets y = 0, None if it lies below y = 0 for every x
        x_f = _axis_x(region, -region.dbar, region.e_min, True)
        lo, hi = (x_c if x_f is None else min(max(x_f, x_e), x_c)), x_c
    candidates = [x_c, x_e, lo]
    if lo == hi:
        return candidates
    if p == 1.0:
        candidates.append(0.5 * lo + 0.5 * hi)
    elif x_c <= x_e:
        candidates.append(min(max(_top_a_argmax(region, region.b_max, region.c_max), lo), hi))
    elif region.e_min > 0 and region.e_max > 0:
        # otherwise lo_d or top_d is flat and the gap monotone on the span
        U = region.bounds.U
        fU = region.f_max * U

        def slope_gap(x: float) -> tuple[float, float]:
            # lo_d' - top_d', increasing, and its slope lo_d'' - top_d'',
            # where top_d'' = -(p-1)*top_d'**2/top_d; where f_max*U
            # underflows to 0 it divides by the two factors in turn
            top_d = _curves(region, x)[2]
            d_top = _slope(region, 2, x, top_d)
            num = region.e_min * p * (p - 1.0)
            d2_lo = (num / fU if fU else num / region.f_max / U) * _pow(x / U, p - 2.0)
            d2_top = (p - 1.0) * d_top * d_top / top_d if top_d > 0 else math.inf
            return _newton(_slope(region, 3, x, 0.0) - d_top, d2_lo + d2_top)

        at_lo = slope_gap(lo)
        if at_lo[0] < 0.0:
            candidates.append(hi if slope_gap(hi)[0] < 0.0 else _root(slope_gap, lo, hi, at_lo))
    return candidates


def _top_a_argmax(region: RegionSpec, wx: float, wy: float) -> float:
    """The x that maximises wx*x + wy*y along top_a, for p > 1.

    Lagrange's condition on constraint (1) gives
    x* = U*(abar/(b_min*U + c_min*V*K**(p/(p-1))))**(1/p) with
    K = wy*b_min/(wx*c_min), that is x* = xmax*(1 + w)**(-1/p) with
    w = c_min*V*K**(p/(p-1))/(b_min*U), which is formed from logarithms so
    that no power overflows.
    """
    p, log = region.p, math.log
    log_w = (log(region.bounds.V) - log(region.bounds.U)
             + (p * (log(wy) - log(wx)) + log(region.b_min) - log(region.c_min)) / (p - 1.0))
    log1p_w = log_w + math.log1p(math.exp(-log_w)) if log_w > 0 else math.log1p(math.exp(log_w))
    return _x_ceiling(region) * math.exp(-log1p_w / p)


def _sup_over_region(region: RegionSpec, objective: Callable[[float, float], float],
                     argmax_on_top_a: Callable[[], Optional[float]]) -> SupResult:
    """Maximize an objective that is increasing in y over the region.

    Each slice's maximum lies on its top, and along top_d both objectives
    grow, so the supremum lies on top_a, on [max(x_a, x_c), x_b], or at x_b
    when top_d is the whole top.  The objective's maximiser along top_a,
    ``argmax_on_top_a()``, is clamped to that interval; None, for a linear
    objective along a line (p = 1), takes the better end.  At x_c the
    height is that of the flatter top curve (:func:`_slice`).  Coexistence
    averages lie in the open quadrant, so a maximiser on an axis at the end
    of an interval of positive width is moved 8 ulp of x_b inside along the
    top.
    """
    found = region._slices
    if found is None:
        return SupResult(0.0, (math.nan, math.nan), empty=True)
    if found.point is not None:
        value = math.inf if math.isnan(found.point[0]) else float(objective(*found.point))
        return SupResult(value, found.point, empty=False, degenerate=found.degenerate)
    x_a, x_b = found.interval
    lo = min(max(x_a, found.x_c), x_b)

    def top(x: float) -> float:
        return _slice(region, x, found.crossing and x == found.x_c)[1]

    x_star = argmax_on_top_a()
    if x_star is None:
        x = max((lo, x_b), key=lambda t: objective(t, top(t)))
    else:
        x = min(max(x_star, lo), x_b)
    y = top(x)
    if x_a < x_b and (x <= 0.0 or y <= 0.0):
        inward = min(8.0 * math.ulp(1.0) * x_b, 0.5 * (x_b - x_a))
        x = x + inward if x == x_a else max(x - inward, x_a)
        y = top(x)
    return SupResult(float(objective(x, y)), (x, y), empty=False, degenerate=found.degenerate)


def sup_xy(region: RegionSpec) -> SupResult:
    """sup { x*y : (x, y) in the region }; U*V at the corner for p = inf.

    Along top_a, x*y peaks where b_min*U*(x/U)**p = abar/2, at
    x* = xmax*2**(-1/p)."""
    return _sup_over_region(region, lambda x, y: x * y,
                            lambda: _x_ceiling(region) * 0.5 ** (1.0 / region.p))


def sup_linear(region: RegionSpec) -> SupResult:
    """sup { b_max*x + f_max*y } over the region, with its own b_max, f_max."""
    return _sup_over_region(
        region, lambda x, y: region.b_max * x + region.f_max * y,
        lambda: None if region.p == 1.0 else _top_a_argmax(region, region.b_max, region.f_max))


def boundary_residual(region: RegionSpec, label: str, x: float, y: float) -> float:
    """|defining equality| of the labeled boundary curve at (x, y), scalars or arrays."""
    if label == "x_equals_U":
        return abs(x - region.bounds.U)
    if label == "y_equals_V":
        return abs(y - region.bounds.V)
    return abs(_constraint(region, label, x, y))


def boundary_points(region: RegionSpec, n: int) -> list[tuple[str, float, float]]:
    """``n`` samples per labeled boundary curve, as (label, x, y) tuples.

    Finite p yields four curves (the defining equalities); p = inf yields
    the two box edges through the corner (U, V).  Each finite-p curve is
    that entry of :func:`_curves` over its own ``np.linspace`` of x, on the
    part of [0, xmax] where the curve lies at y >= 0, and one call
    evaluates the rows of all four; a d curve that lies below y = 0 for
    every x (e = 0 and dbar < 0) is not sampled.  Each sample's y is
    clamped at 0 and the sample dropped unless that y is finite.  The last
    ``a_lower`` sample is (xmax, 0): constraint (1) at y = 0 defines xmax,
    and the root there would turn a one-ulp remainder into a visible
    height.  So every point satisfies its defining equality to machine
    accuracy; the ``region`` command writes exactly these.  numpy's
    vectorised ``pow`` may round y a few ulp apart from libm's on a float
    x, and apart between hosts.  The curves are sampled whether or not the region is
    empty; ``sup_xy(region).empty`` tells.
    """
    if n < 2:
        raise ValueError("need at least two samples per curve")
    p = region.p
    U, V = region.bounds.U, region.bounds.V

    if p == INF:
        if U > 0 and V > 0:
            return ([("x_equals_U", U, y) for y in np.linspace(0.0, V, n).tolist()]
                    + [("y_equals_V", x, V) for x in np.linspace(0.0, U, n).tolist()])
        return []

    if region.abar <= 0 or (p != 1.0 and (U <= 0 or V <= 0)):
        return []
    xmax = _x_ceiling(region)

    # Each curve is sampled on the part of [0, xmax] where it lies at y >= 0;
    # at e = 0 and dbar < 0 a d curve lies below y = 0 everywhere (None).
    ranges = [(label, x_start, x_end) for label, x_start, x_end in (
        ("a_lower", 0.0, xmax),
        ("a_upper", 0.0, min(xmax, _axis_x(region, region.abar, region.b_max, False))),
        ("d_lower", _axis_x(region, -region.dbar, region.e_max, False), xmax),
        ("d_upper", _axis_x(region, -region.dbar, region.e_min, True), xmax),
    ) if x_start is not None and x_start <= x_end]
    labels = [label for label, _, _ in ranges]
    # one row of x per curve, each from its own linspace: a linspace over
    # arrays of ends rounds every row apart once one row has zero width
    xs = np.array([np.linspace(x_start, x_end, n) for _, x_start, x_end in ranges])
    with np.errstate(over="ignore", invalid="ignore"):
        curves = _curves(region, xs)
        ys = np.array([curves[_CURVE_INDEX[label]][row] for row, label in enumerate(labels)])
        ys = np.where(0.0 > ys, 0.0, ys)  # max(y, 0.0): keeps -0.0 and NaN
    if "a_lower" in labels:
        ys[labels.index("a_lower"), -1] = 0.0
    keep = np.isfinite(ys)
    pts: list[tuple[str, float, float]] = []
    for row, label in enumerate(labels):
        pts += zip(repeat(label), xs[row][keep[row]].tolist(), ys[row][keep[row]].tolist())
    return pts
