"""Seeded system generator for the benchmark workloads.

Every case is a function of (workload, seed, index) alone and is written
as pplv config text, so the program under test sees nothing but its own
input format.  No pplv code is used here.

Variance control without filtering: the structural template of a case
(harmonic count, variant, family) cycles with the case index, and every
number inside a template comes from a randomly shifted Kronecker
sequence (randomized quasi-Monte Carlo; the seed picks the shifts).  Each
parameter is then spread evenly over its range in every prefix of the
case stream, so run-level aggregates such as the share of systems that
hit a defect vary little from seed to seed, while each draw is still
uniform over the same ranges.  Systems that hit a known defect stay in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("analyze_trig", "const_study", "orbits")

T_MIN, T_MAX = 0.1, 3.0

ANALYZE_P = "1,1.5,2,3,5,10,inf"

# analyze_trig: sign pattern of the growth rates, cycled after the
# harmonic count.
TRIG_VARIANTS = ("coexist", "sign_changing_a", "negative_mean_d", "no_coexistence")
# orbits: families, cycled by case index, all forced at periods near the
# saddle example's, where one_harmonic and saddle cases cost about the same
# (about 4 s each on a shared 2-core x86 VM).  The dearer two_harmonic cases
# (5-6.5 s there) fill one slot in five, so the median of the ~7 cases a
# run completes stays inside the cheaper cluster.
ORBIT_FAMILIES = ("one_harmonic", "saddle", "one_harmonic", "saddle", "two_harmonic")
ORBIT_T_MIN, ORBIT_T_MAX = 6.0, 7.0

# The bundled demonstration constants and the forced saddle example.
_DEMO = {"a": 2.0102, "b": 1.0, "c": 0.0051, "d": 2.0203, "e": 0.9898, "f": 2.0}
_SADDLE = {"b": 0.01, "c": 1.0, "d": -1.0, "e": 1.0, "f": 0.01}


@dataclass(frozen=True)
class Case:
    """One generated system and the CLI commands a case runs on it."""

    key: str
    family: str
    config: str
    commands: tuple[tuple[str, ...], ...]


def _num(x: float) -> str:
    return repr(round(float(x), 9))


def _const(value: float) -> list[str]:
    return ["kind = const", f"value = {_num(value)}"]


def _trig(c0: float, harmonics) -> list[str]:
    lines = ["kind = trig", f"c0 = {_num(c0)}"]
    lines += [f"harmonic = {k}, {_num(ck)}, {_num(sk)}" for k, ck, sk in harmonics]
    return lines


def config_text(T: float, coeffs: dict[str, list[str]]) -> str:
    lines = ["[system]", f"T = {_num(T)}"]
    for name in "abcdef":
        lines.append(f"[{name}]")
        lines += coeffs[name]
    return "\n".join(lines) + "\n"


def _primes(n: int) -> list[int]:
    out = []
    k = 2
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


# Irrational steps frac(sqrt(prime)), one per coordinate.
_STEPS = [math.sqrt(p) % 1.0 for p in _primes(160)]


class Draws:
    """Coordinate j of member m of a stratum is frac(shift_j + m * step_j),
    with shift_j drawn from the seed.  Same interface as random.Random for
    what the generator uses."""

    def __init__(self, seed: int, stratum: str, member: int) -> None:
        self._seed, self._stratum, self._member = seed, stratum, member
        self._j = 0

    def random(self) -> float:
        j = self._j
        self._j += 1
        shift = random.Random(f"{self._seed}/{self._stratum}/{j}").random()
        return (shift + self._member * _STEPS[j]) % 1.0

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def choice(self, seq):
        return seq[min(int(self.random() * len(seq)), len(seq) - 1)]

    def sample(self, population, k: int) -> list:
        pool = list(population)
        return [pool.pop(min(int(self.random() * len(pool)), len(pool) - 1)) for _ in range(k)]


def _harmonics(rng: Draws, n: int, amplitude: float, kmax: int = 4):
    """``n`` distinct harmonics up to ``kmax`` whose |cos| + |sin| sum to ``amplitude``."""
    ks = sorted(rng.sample(range(1, kmax + 1), n))
    weights = [rng.random() + 0.2 for _ in range(2 * n)]
    scale = amplitude / sum(weights)
    out = []
    for j, k in enumerate(ks):
        ck = weights[2 * j] * scale * rng.choice((-1.0, 1.0))
        sk = weights[2 * j + 1] * scale * rng.choice((-1.0, 1.0))
        out.append((k, ck, sk))
    return out


def _positive_trig(rng: Draws, n: int, lo: float, hi: float) -> list[str]:
    c0 = rng.uniform(lo, hi)
    return _trig(c0, _harmonics(rng, n, rng.uniform(0.1, 0.6) * c0))


def _analyze_trig(seed: int, index: int) -> Case:
    n = 1 + index % 3
    variant = TRIG_VARIANTS[(index // 3) % len(TRIG_VARIANTS)]
    rng = Draws(seed, f"analyze_trig/h{n}/{variant}", index // 12)
    T = rng.log_uniform(T_MIN, T_MAX)
    coeffs = {name: _positive_trig(rng, n, 0.5, 2.0) for name in "bcef"}
    abar = rng.uniform(0.5, 3.0)
    dbar = rng.uniform(-0.5, 1.5)
    a_amp = rng.uniform(0.1, 0.8) * abar
    d_amp = rng.uniform(0.1, 0.8) * abs(dbar)
    if variant == "sign_changing_a":
        a_amp = rng.uniform(1.2, 2.5) * abar
    elif variant == "negative_mean_d":
        dbar = -rng.uniform(0.2, 1.5)
        d_amp = rng.uniform(0.1, 1.5) * abs(dbar)
    elif variant == "no_coexistence":
        abar = -rng.uniform(0.1, 1.0)
        a_amp = rng.uniform(0.1, 1.5) * abs(abar)
    coeffs["a"] = _trig(abar, _harmonics(rng, n, a_amp))
    coeffs["d"] = _trig(dbar, _harmonics(rng, n, d_amp))
    return Case(f"analyze_trig/{seed}/{index}", f"h{n}/{variant}", config_text(T, coeffs),
                (("analyze", "--p", ANALYZE_P),))


def _const_study(seed: int, index: int) -> Case:
    rng = Draws(seed, "const_study", index)
    T = rng.log_uniform(T_MIN, T_MAX)
    values = {
        "a": rng.uniform(0.5, 3.0),
        "b": rng.uniform(0.5, 2.0),
        "c": rng.log_uniform(0.02, 2.0),
        "d": rng.uniform(-0.5, 2.5),
        "e": rng.uniform(0.2, 1.5),
        "f": rng.uniform(0.5, 2.5),
    }
    coeffs = {name: _const(v) for name, v in values.items()}
    return Case(f"const_study/{seed}/{index}", "const", config_text(T, coeffs),
                (("analyze", "--p", ANALYZE_P), ("region",), ("example1",)))


def _orbits(seed: int, index: int) -> Case:
    family = ORBIT_FAMILIES[index % len(ORBIT_FAMILIES)]
    rng = Draws(seed, f"orbits/{index % len(ORBIT_FAMILIES)}", index // len(ORBIT_FAMILIES))
    T = rng.uniform(ORBIT_T_MIN, ORBIT_T_MAX)
    if family == "saddle":
        # Forced, weakly damped family around the saddle example
        # T = 6.5, a = 1 + 0.9 sin, b = f = 0.01, c = e = 1, d = -1.
        coeffs = {
            "a": _trig(rng.uniform(0.9, 1.1), [(1, 0.0, rng.uniform(0.8, 0.95))]),
            "b": _const(rng.uniform(0.008, 0.012)),
            "c": _const(rng.uniform(0.9, 1.1)),
            "d": _const(-rng.uniform(0.9, 1.1)),
            "e": _const(rng.uniform(0.9, 1.1)),
            "f": _const(rng.uniform(0.008, 0.012)),
        }
    else:
        # Demo constants (positive equilibrium near (2, 2)) moved by up to
        # 10%, with 1 or 2 harmonics of 2-10% added to a and d.
        n = 1 if family == "one_harmonic" else 2
        v = {name: x * rng.uniform(0.9, 1.1) for name, x in _DEMO.items()}
        coeffs = {name: _const(x) for name, x in v.items()}
        for name in "ad":
            coeffs[name] = _trig(v[name], _harmonics(rng, n, rng.uniform(0.02, 0.1) * v[name], kmax=2))
    return Case(f"orbits/{seed}/{index}", family, config_text(T, coeffs), (("simulate",),))


_BUILDERS = {"analyze_trig": _analyze_trig, "const_study": _const_study, "orbits": _orbits}


def case(workload: str, seed: int, index: int) -> Case:
    """The ``index``-th case of ``workload`` for ``seed``."""
    return _BUILDERS[workload](seed, index)



def anchors(workload: str) -> list[Case]:
    """Fixed systems that open every run of a workload; their outputs at the
    commit that defined the benchmark are stored in reference.json."""
    if workload == "orbits":
        perturbed = {k: _const(v) for k, v in _DEMO.items()}
        perturbed["a"] = _trig(_DEMO["a"], [(1, 0.0, 0.01)])
        saddle = {k: _const(v) for k, v in _SADDLE.items()}
        saddle["a"] = _trig(1.0, [(1, 0.0, 0.9)])
        return [Case("orbits/anchor/perturbed_demo", "perturbed_demo",
                     config_text(1.0, perturbed), (("simulate",),)),
                Case("orbits/anchor/saddle", "saddle", config_text(6.5, saddle), (("simulate",),))]
    # analyze_trig: each harmonic count and each of the four conclusions.
    picks = (0, 4, 6, 11) if workload == "analyze_trig" else (0, 1)
    out = [case(workload, -1, i) for i in picks]
    if workload == "const_study":
        demo = {k: _const(v) for k, v in _DEMO.items()}
        out = [Case(f"const_study/anchor/demo_T{T:g}", "const", config_text(T, demo), out[0].commands)
               for T in (1.0, 0.1)] + out
    return out


def cases(workload: str, seed: int):
    """Anchors, then an endless stream of seeded cases."""
    yield from anchors(workload)
    index = 0
    while True:
        yield case(workload, seed, index)
        index += 1
