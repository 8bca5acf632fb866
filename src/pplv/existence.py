"""Boundary-state classification and the coexistence existence test.

The trivial state and the two one-species states are classified by the
sign of the coefficient means and by weighted averages of the logistic
states; coexistence states exist exactly when every boundary state that
exists is linearly unstable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coeffs import SystemSpec
from .logistic import periodic_logistic, weighted_average

# A margin within this of zero is flagged borderline, here and in the criteria.
BORDERLINE_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryClassification:
    """Stability summary of the trivial and one-species periodic states.

    ``lam`` and ``mu`` are the means of a and d.  The stability flag of a
    one-species state is present only when that state exists, i.e. when
    the mean is positive.  ``margins`` holds the slack of the two
    instability inequalities that gate coexistence.
    """

    lam: float
    mu: float
    trivial_stable: bool
    prey_only_stable: Optional[bool]
    predator_only_stable: Optional[bool]
    coexistence_exists: bool
    margins: tuple[float, float]
    diagnostics: tuple[str, ...] = ()


def classify_boundary(spec: SystemSpec) -> BoundaryClassification:
    """Classify all boundary states of the system and decide coexistence.

    The trivial state is stable iff lam <= 0 and mu <= 0.  The prey-only
    state (exists iff lam > 0) is stable iff mu <= -avg(e * theta_lambda);
    the predator-only state (exists iff mu > 0) is stable iff
    lam <= avg(c * theta_mu).  Coexistence states exist iff lam > 0 and
    every existing boundary state is unstable.  When the predator-only
    state does not exist its inequality degenerates; the remaining
    requirement is lam > 0 and the second margin reports lam itself.
    """
    lam = spec.a.mean
    mu = spec.d.mean
    diagnostics: list[str] = []

    trivial_stable = lam <= 0 and mu <= 0

    prey_only_stable = None
    margin1 = lam  # placeholder when theta_lambda does not exist
    if lam > 0:
        avg_e_theta = weighted_average(spec.e, periodic_logistic(spec.a, spec.b, spec.T))
        prey_only_stable = mu <= -avg_e_theta
        margin1 = mu + avg_e_theta
    else:
        diagnostics.append("prey-only state absent (lam <= 0); first margin reports lam")

    predator_only_stable = None
    margin2 = lam
    if mu > 0:
        avg_c_theta = weighted_average(spec.c, periodic_logistic(spec.d, spec.f, spec.T))
        predator_only_stable = lam <= avg_c_theta
        margin2 = lam - avg_c_theta
    else:
        diagnostics.append("predator-only state absent (mu <= 0); second margin reports lam")

    coexistence = (
        lam > 0
        and (prey_only_stable is False)
        and (predator_only_stable is not True)
    )

    for name, m in (("first", margin1), ("second", margin2)):
        if abs(m) <= BORDERLINE_TOL:
            diagnostics.append(f"{name} margin borderline ({m:.3e})")

    return BoundaryClassification(
        lam=lam,
        mu=mu,
        trivial_stable=trivial_stable,
        prey_only_stable=prey_only_stable,
        predator_only_stable=predator_only_stable,
        coexistence_exists=coexistence,
        margins=(margin1, margin2),
        diagnostics=tuple(diagnostics),
    )

