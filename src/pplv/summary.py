"""Per-system quantities shared by every criterion and every exponent.

The stability tests at each exponent p read the same coefficient extrema,
component bounds (U, V), boundary classification, p = 1 linear supremum
and p = 1 norm envelopes.  :func:`summarize` computes them once per
system; the criteria take the summary as data and derive each p-region
from its p = 1 region with :meth:`RegionSpec.at`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffs import SystemSpec, lp_norm
from .existence import BoundaryClassification, classify_boundary
from .region import RegionSpec, SupResult, region_spec, sup_linear


@dataclass(frozen=True)
class SystemSummary:
    """Everything about one system that does not depend on the exponent.

    ``region1`` is the p = 1 region; it carries the extrema of b, c, e, f
    and the bounds U, V.  ``sup_linear1`` is the supremum of
    b_max*x + f_max*y over it, and ``envelopes1`` the p = 1 norm envelopes
    (alpha_1, beta_1).
    """

    spec: SystemSpec
    classification: BoundaryClassification
    region1: RegionSpec
    sup_linear1: SupResult
    envelopes1: tuple[float, float]


def norm_envelopes(spec: SystemSpec, region1: RegionSpec, p: float) -> tuple[float, float]:
    """alpha_p = ||a||_p / b_min,  beta_p = ||d||_p / f_min + (e_max/f_min) * alpha_p."""
    alpha = lp_norm(spec.a, spec.T, p) / region1.b_min
    beta = lp_norm(spec.d, spec.T, p) / region1.f_min + (region1.e_max / region1.f_min) * alpha
    return alpha, beta


def summarize(spec: SystemSpec) -> SystemSummary:
    """Compute the exponent-independent quantities of ``spec`` once."""
    region1 = region_spec(spec, 1.0)
    return SystemSummary(
        spec=spec,
        classification=classify_boundary(spec),
        region1=region1,
        sup_linear1=sup_linear(region1, region1.b_max, region1.f_max),
        envelopes1=norm_envelopes(spec, region1, 1.0),
    )
