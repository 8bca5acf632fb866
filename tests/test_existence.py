import numpy as np
import pytest

from conftest import const_spec

from pplv.coeffs import PeriodicCoefficient, SystemSpec
from pplv.constant_case import equilibrium
from pplv.existence import classify_boundary
from pplv.logistic import periodic_logistic

C = PeriodicCoefficient.constant


def test_trivial_state_stable_when_both_means_nonpositive():
    cls = classify_boundary(const_spec(-1, 1, 1, -1, 1, 1))
    assert cls.trivial_stable
    assert cls.prey_only_stable is None and cls.predator_only_stable is None
    assert not cls.coexistence_exists


def test_prey_only_state_unstable_for_classical_set():
    spec = const_spec(1, 1, 1, -0.5, 1, 1)
    cls = classify_boundary(spec)
    theta = periodic_logistic(spec.a, spec.b, spec.T)
    assert np.max(np.abs(theta.values - 1.0)) < 1e-10
    # mu = -0.5 > -avg(e * theta) = -1, so the prey-only state is unstable
    assert cls.prey_only_stable is False
    assert cls.coexistence_exists


def test_demo_constants_have_both_semitrivial_states(eq30_spec):
    cls = classify_boundary(eq30_spec)
    assert cls.lam == pytest.approx(2.0102)
    assert cls.mu == pytest.approx(2.0203)
    assert cls.prey_only_stable is False and cls.predator_only_stable is False
    assert cls.coexistence_exists


class TestCoexistenceExists:
    def test_classical_set(self):
        cls = classify_boundary(const_spec(1, 1, 1, -0.5, 1, 1))
        margins = cls.margins
        assert cls.coexistence_exists
        assert margins[0] == pytest.approx(0.5, abs=1e-9)  # -0.5 + 1
        assert margins[1] == pytest.approx(1.0)  # lam itself (mu <= 0)

    def test_all_negative_growth(self):
        assert not classify_boundary(const_spec(-1, 1, 1, -1, 1, 1)).coexistence_exists

    def test_demo_constants(self, eq30_spec):
        cls = classify_boundary(eq30_spec)
        margins = cls.margins
        assert cls.coexistence_exists
        assert margins[0] == pytest.approx(2.0203 + 0.9898 * 2.0102, abs=1e-8)
        assert margins[1] == pytest.approx(2.0102 - 0.0051 * (2.0203 / 2.0), abs=1e-8)

    def test_strong_predator_death_blocks_coexistence(self, eq30_spec):
        spec = const_spec(2.0102, 1.0, 0.0051, -10.0, 0.9898, 2.0)
        cls = classify_boundary(spec)
        assert not cls.coexistence_exists
        assert cls.margins[0] < 0


def test_mutual_exclusion_of_stability_and_coexistence():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a, d = rng.uniform(-2, 2, size=2)
        b, c, e, f = rng.uniform(0.2, 2.0, size=4)
        cls = classify_boundary(const_spec(a, b, c, d, e, f))
        any_stable = (cls.trivial_stable
                      or cls.prey_only_stable is True
                      or cls.predator_only_stable is True)
        if any_stable:
            assert not cls.coexistence_exists


def test_constant_cross_check_equilibrium_positivity():
    # for constants, coexistence exists iff the linear-solve equilibrium is
    # componentwise strictly positive
    rng = np.random.default_rng(11)
    for _ in range(60):
        a, d = rng.uniform(-2, 2, size=2)
        b, c, e, f = rng.uniform(0.2, 2.0, size=4)
        spec = const_spec(a, b, c, d, e, f)
        ok = classify_boundary(spec).coexistence_exists
        x, y = equilibrium(spec)
        assert ok == (x > 0 and y > 0)


def test_margin_replacement_diagnostic_when_lambda_nonpositive():
    cls = classify_boundary(const_spec(-0.3, 1, 1, 0.5, 1, 1))
    assert not cls.coexistence_exists
    assert any("prey-only state absent" in d for d in cls.diagnostics)
    assert cls.margins[0] == pytest.approx(-0.3)


def test_underflowing_logistic_state_keeps_margins():
    # a < 0 over part of a long period drives theta_lambda below the double
    # range there; the margins are mu + mean(a) = 3 and mean(a) - mu = 2
    spec = SystemSpec(T=1e5, a=PeriodicCoefficient.trig(2.5, [(1, 0.0, 3.0)]),
                      b=C(1), c=C(1), d=C(0.5), e=C(1), f=C(1))
    cls = classify_boundary(spec)
    assert cls.coexistence_exists
    assert cls.margins == pytest.approx((3.0, 2.0), abs=1e-9)
