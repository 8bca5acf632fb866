"""The admissible-average region and its boundary maximizers.

For each exponent p the p-averages of any coexistence state are confined
to a bounded planar region built from coefficient extrema and the a-priori
component bounds (U, V).  For finite p the region is cut out of the open
quadrant by four inequalities; for p = inf it degenerates to the box
(0, U] x (0, V].  The stability tests need the suprema of x*y and of
b_max*x + f_max*y over these regions.  For finite p the region is convex,
so one search of its slices, shared by both suprema, bounds them in x, and
each supremum is a unimodal search along the top of those slices.

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
    """Where the suprema over a region lie: the x-interval (xa, xb, tol) of
    its non-empty slices, or the one ``point`` every supremum takes (the box
    corner at p = inf, a touching point, or NaN if the x-range overflows)."""

    degenerate: bool
    point: Optional[tuple[float, float]] = None
    interval: tuple[float, float, float] = (math.nan,) * 3


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
        """Where the slices are non-empty, searched once per region; None if empty.

        For p >= 1 each of the four constraints is a convex function bounded
        by a constant, so the region is convex and its slice gap
        yhi(x) - ylo(x) is concave in x.  Golden-section search finds the
        widest slice.  It never evaluates the ends of the x-range, so if its
        widest slice is negative, an end with gap >= 0 takes its place.
        Below -BOUNDARY_TOL (scaled) the region is empty,
        within BOUNDARY_TOL of zero it is degenerate, and a slightly
        negative widest slice is taken as the point where the region
        touches.  Otherwise bisection on the two monotone sides of the gap
        finds the x-interval where the gap is >= 0.
        """
        U, V = self.bounds.U, self.bounds.V
        if self.p == INF:
            return None if U <= 0 or V <= 0 else _Slices(False, (U, V))
        if self.abar <= 0 or (self.p != 1.0 and (U <= 0 or V <= 0)):
            return None
        # top_d is undefined left of -dbar/e_max once p > 1 (everywhere if
        # dbar < 0 = e_max, where the top is negative and the region empty)
        x_lo = max(0.0, -self.dbar / self.e_max) if self.p != 1.0 and self.e_max > 0 else 0.0
        x_hi = _x_ceiling(self)
        if x_lo > x_hi:
            return None
        if not math.isfinite(x_hi):
            # the x-range overflows: no finite bound on any objective is known
            return _Slices(False, (math.nan, math.nan))
        # relative to the x-range, so a narrow region keeps 13 digits of its x*y
        tol = max(1e-13 * x_hi, math.ulp(x_hi))
        scale = 1.0 + abs(self.abar) + abs(self.dbar)

        def gap(x: float) -> float:
            ylo, yhi = _slice(self, x)
            return yhi - ylo

        x_g, gap_max = _golden_max_f(gap, x_lo, x_hi, tol)
        if gap_max < 0.0:
            # the golden search never evaluates the ends, where the region
            # can be a point or a segment (every coefficient 1 at p = 1: the
            # point (0, 1)); from an end with gap >= 0 the interval is searched
            for x_end in (x_lo, x_hi):
                gap_end = gap(x_end)
                if gap_end >= 0.0:
                    x_g, gap_max = x_end, gap_end
                    break
        if gap_max < -BOUNDARY_TOL * scale:
            return None
        if gap_max < 0.0:
            # touching within tolerance: the region is the point of widest
            # slice, unless a top curve is undefined there (p > 1, yhi < 0)
            ylo, yhi = _slice(self, x_g)
            y_g = 0.5 * (ylo + yhi)
            if y_g <= 0 or x_g <= 0 or (yhi < 0 and self.p != 1.0):
                return None
            return _Slices(True, (x_g, y_g))
        # a degenerate region can still be a segment where two constraints
        # coincide, so it is searched like any other
        xa = _feasible_end(gap, x_g, x_lo, tol)
        xb = _feasible_end(gap, x_g, x_hi, tol)
        return _Slices(gap_max <= BOUNDARY_TOL * scale, interval=(xa, xb, tol))


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
    powx = U * (x / U) ** p
    rem = region.abar - region.b_min * powx
    # where c_min*V or f_min*V underflows to 0, divide by the factors in turn
    cv, fv, root = region.c_min * V, region.f_min * V, 1.0 / p
    top_a = ((rem >= 0) * 2.0 - 1.0) * V * abs(rem / cv if cv else rem / region.c_min / V) ** root
    top_d = ((base >= 0) * 2.0 - 1.0) * V * abs(base / fv if fv else base / region.f_min / V) ** root
    return top_a, lo_a, top_d, (region.dbar + region.e_min * powx) / region.f_max


def _slice(region: RegionSpec, x: float) -> tuple[float, float]:
    """Admissible y-interval (ylo, yhi) of the slice at x; empty if ylo > yhi."""
    top_a, lo_a, top_d, lo_d = _curves(region, x)
    return max(lo_a, lo_d, 0.0), min(top_a, top_d)


def _x_ceiling(region: RegionSpec) -> float:
    """Largest x admitted by constraint (1) at y = 0 (the x envelope)."""
    if region.abar <= 0:
        return 0.0
    if region.p == 1.0:
        return region.abar / region.b_min
    U = region.bounds.U
    bu = region.b_min * U  # as in _curves, b_min*U may underflow to 0
    return U * (region.abar / bu if bu else region.abar / region.b_min / U) ** (1.0 / region.p)


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
        px = x if p == 1.0 else U * (x / U) ** p
        py = y if p == 1.0 else V * (y / V) ** p
        return region.abar - (region.b_min * px + region.c_min * py)
    if label == "d_lower":
        py = y if p == 1.0 else V * (y / V) ** p
        return region.dbar - (-region.e_max * x + region.f_min * py)
    if label == "d_upper":
        px = x if p == 1.0 else U * (x / U) ** p
        return -region.e_min * px + region.f_max * y - region.dbar
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


def _golden_max_f(fn: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    h = b - a
    if h <= tol:
        m = 0.5 * (a + b)
        return m, fn(m)
    c = a + invphi2 * h
    d = a + invphi * h
    fc, fd = fn(c), fn(d)
    n = max(1, int(math.ceil(math.log(tol / h) / math.log(invphi))))
    for _ in range(n):
        if fc > fd:
            b, d, fd = d, c, fc
            h *= invphi
            c = a + invphi2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h *= invphi
            d = a + invphi * h
            fd = fn(d)
    return (c, fc) if fc > fd else (d, fd)


def _feasible_end(gap: Callable[[float], float], inside: float, end: float, tol: float) -> float:
    """Last x from ``inside`` (gap >= 0) towards ``end`` with gap >= 0.

    The gap is concave, so it is monotone between the two and bisection
    finds the crossing.  The number of halvings that brings the bracket
    within ``tol`` is fixed up front, and the midpoint is formed so that it
    cannot overflow.
    """
    if gap(end) >= 0.0:
        return end
    width = abs(end - inside)
    for _ in range(math.ceil(math.log2(width / tol)) if width > tol else 0):
        mid = 0.5 * inside + 0.5 * end
        if gap(mid) >= 0.0:
            inside = mid
        else:
            end = mid
    return inside


def _sup_over_region(region: RegionSpec, objective: Callable[[float, float], float]) -> SupResult:
    """Maximize an objective that is increasing in y over the region.

    Each slice's maximum lies on its top, y = yhi(x), which is concave and
    non-negative on the x-interval of ``region._slices``: x*yhi(x) is
    log-concave and a linear objective with positive y coefficient concave.
    One golden-section search along the top, which nears the interval's ends
    from inside only, finds the supremum with its argmax in the open quadrant.
    """
    found = region._slices
    if found is None:
        return SupResult(0.0, (math.nan, math.nan), empty=True)
    if found.point is not None:
        value = math.inf if math.isnan(found.point[0]) else float(objective(*found.point))
        return SupResult(value, found.point, empty=False, degenerate=found.degenerate)
    x, value = _golden_max_f(lambda t: objective(t, _slice(region, t)[1]), *found.interval)
    return SupResult(float(value), (x, _slice(region, x)[1]), empty=False,
                     degenerate=found.degenerate)


def sup_xy(region: RegionSpec) -> SupResult:
    """sup { x*y : (x, y) in the region }; U*V at the corner for p = inf."""
    return _sup_over_region(region, lambda x, y: x * y)


def sup_linear(region: RegionSpec) -> SupResult:
    """sup { b_max*x + f_max*y } over the region, with its own b_max, f_max."""
    return _sup_over_region(region, lambda x, y: region.b_max * x + region.f_max * y)


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
    dbar = region.dbar
    if dbar >= 0:
        d_lower_start = d_upper_start = 0.0
    else:
        d_lower_start = -dbar / region.e_max if region.e_max > 0 else None
        if region.e_min <= 0:
            d_upper_start = None
        elif p == 1.0:
            d_upper_start = -dbar / region.e_min
        else:
            eu = region.e_min * U  # as in _curves, e_min*U may underflow to 0
            d_upper_start = U * (-dbar / eu if eu else -dbar / region.e_min / U) ** (1.0 / p)
    ranges = [(label, x_start, x_end) for label, x_start, x_end in (
        ("a_lower", 0.0, xmax),
        ("a_upper", 0.0, min(xmax, region.abar / region.b_max)),
        ("d_lower", d_lower_start, xmax),
        ("d_upper", d_upper_start, xmax),
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
