"""Per-system quantities shared by every criterion and every exponent.

The stability tests at each exponent p read the same coefficient extrema,
component bounds (U, V), boundary classification, p = 1 linear supremum
and norm envelopes.  :func:`summarize` computes them once per system, the
envelopes for the whole exponent grid (plus p = 1) from one
:func:`lp_norm` call per coefficient; the criteria take the summary as
data and derive each p-region from its p = 1 region with
:meth:`RegionSpec.at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coeffs import SystemSpec, lp_norm
from .existence import BoundaryClassification, classify_boundary
from .region import RegionSpec, SupResult, region_spec, sup_linear


@dataclass(frozen=True)
class SystemSummary:
    """Everything about one system that the exponent tests share.

    ``region1`` is the p = 1 region; it carries the extrema of b, c, e, f
    and the bounds U, V.  ``sup_linear1`` is the supremum of
    b_max*x + f_max*y over it, and ``envelopes`` maps p = 1 and each
    exponent of the grid to the norm envelopes (alpha_p, beta_p).
    """

    spec: SystemSpec
    classification: BoundaryClassification
    region1: RegionSpec
    sup_linear1: SupResult
    envelopes: dict[float, tuple[float, float]]


def norm_envelopes(spec: SystemSpec, region1: RegionSpec,
                   ps: Sequence[float]) -> dict[float, tuple[float, float]]:
    """p -> (alpha_p, beta_p) with alpha_p = ||a||_p / b_min and
    beta_p = ||d||_p / f_min + (e_max/f_min) * alpha_p."""
    envelopes = {}
    for p, norm_a, norm_d in zip(ps, lp_norm(spec.a, spec.T, ps), lp_norm(spec.d, spec.T, ps)):
        alpha = norm_a / region1.b_min
        envelopes[p] = alpha, norm_d / region1.f_min + (region1.e_max / region1.f_min) * alpha
    return envelopes


def summarize(spec: SystemSpec, grid: Sequence[float]) -> SystemSummary:
    """Compute the quantities of ``spec`` that the tests over ``grid`` share, once."""
    region1 = region_spec(spec, 1.0)
    # every exponent test reads the p = 1 envelopes beside its own
    return SystemSummary(
        spec=spec,
        classification=classify_boundary(spec),
        region1=region1,
        sup_linear1=sup_linear(region1),
        envelopes=norm_envelopes(spec, region1, tuple(dict.fromkeys((1.0, *grid)))),
    )
