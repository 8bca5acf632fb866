import dataclasses
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from pplv import PeriodicCoefficient, SystemSpec
from pplv.region import RegionBounds, RegionSpec

C = PeriodicCoefficient.constant
TRIG = PeriodicCoefficient.trig


def const_spec(a, b, c, d, e, f, T=1.0) -> SystemSpec:
    """The system with constant coefficients a, ..., f and period T."""
    return SystemSpec(T=T, a=C(a), b=C(b), c=C(c), d=C(d), e=C(e), f=C(f))


@pytest.fixture(scope="session")
def eq30():
    """The bundled demonstration constants (sign pattern G(1) > 0, G(2) < 0,
    G(200) > 0; sign_ok false at p = 1 and 2), as plain numbers."""
    return SimpleNamespace(T=1.0, a=2.0102, b=1.0, c=0.0051, d=2.0203, e=0.9898, f=2.0)


@pytest.fixture(scope="session")
def eq30_spec(eq30):
    return const_spec(**vars(eq30))


@pytest.fixture(scope="session")
def eq30_spec_t01(eq30_spec):
    return dataclasses.replace(eq30_spec, T=0.1)


@pytest.fixture(scope="session")
def classical_spec():
    """Prey-limited predator with negative intrinsic predator growth."""
    return SystemSpec(T=1.0, a=C(1.0), b=C(1.0), c=C(1.0),
                      d=C(-0.5), e=C(1.0), f=C(1.0))


@pytest.fixture(scope="session")
def perturbed_spec(eq30):
    """Demo constants with a small sinusoidal modulation on the prey growth."""
    a = TRIG(eq30.a, [(1, 0.0, 0.01)])
    return SystemSpec(T=1.0, a=a, b=C(eq30.b), c=C(eq30.c),
                      d=C(eq30.d), e=C(eq30.e), f=C(eq30.f))


@pytest.fixture(scope="session")
def saddle_spec():
    """Strongly forced, weakly damped system carrying an unstable
    (saddle) coexistence orbit near (0.0487, 0.4891)."""
    a = TRIG(1.0, [(1, 0.0, 0.9)])
    return SystemSpec(T=6.5, a=a, b=C(0.01), c=C(1.0),
                      d=C(-1.0), e=C(1.0), f=C(0.01))


def figure_region(p: float) -> RegionSpec:
    """Freestanding region parameters with unit spreads and U = V = 2."""
    return RegionSpec(p=p, abar=2.0, dbar=2.0,
                      b_min=1.0, b_max=2.0, c_min=1.0, c_max=2.0,
                      e_min=1.0, e_max=2.0, f_min=1.0, f_max=2.0,
                      bounds=RegionBounds(U=2.0, V=2.0))


def format_config(spec: SystemSpec) -> str:
    """Config text that ``pplv.cli.parse_config`` reads back as ``spec``;
    numbers carry 17 significant digits."""
    lines = ["[system]", f"T = {spec.T:.17g}"]
    for name in "abcdef":
        coef = getattr(spec, name)
        lines.append(f"[{name}]")
        if not coef.harmonics:
            lines += ["kind = const", f"value = {coef.c0:.17g}"]
        else:
            lines += ["kind = trig", f"c0 = {coef.c0:.17g}"]
            lines += [f"harmonic = {k}, {ck:.17g}, {sk:.17g}" for k, ck, sk in coef.harmonics]
    return "\n".join(lines) + "\n"


def count_calls(monkeypatch, originals) -> Counter:
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
