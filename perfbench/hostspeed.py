"""Host-speed sampling, so case times can be rescaled to a reference speed.

On a shared host the same computation runs up to twice as slowly for
stretches of seconds to minutes, because other tenants contend for the
core; the process's CPU time slows with its wall time, so neither clock
separates the program's speed from the host's.  ``SpeedMeter`` times a
fixed calibration kernel, which uses no pplv code, every
``PROBE_INTERVAL_S`` of wall time from a SIGALRM handler, so the host's
speed is sampled during each case as well as between cases.  A case's
time is then

    normalised = (wall - probe time inside the case) * PROBE_REF_MS / probe_mean

where ``probe_mean`` is the mean kernel time over the case and one
interval on either side.  A cold start runs in a child process, which
times the kernel itself right after its import (``kernel_ms``).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Calibration kernel: small-array numpy calls and Python arithmetic, the
# mix that pplv's hot loops have.  PROBE_REF_MS is a fixed scale, about
# the kernel's fastest time on the 2-core 2.1 GHz x86 VM where the
# benchmark was defined; a normalised time reads as the wall time on a
# host where the kernel takes that long.
PROBE_X = np.linspace(0.0, 1.0, 64)
PROBE_ITERATIONS = 1200
PROBE_REF_MS = 3.4
PROBE_INTERVAL_S = 0.1


def probe_kernel() -> float:
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        total += float(np.sin(PROBE_X * i).sum()) + i % 7
    return total


def kernel_ms(runs: int) -> float:
    """Mean time (ms) of ``runs`` runs of the calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(runs):
        probe_kernel()
    return (time.perf_counter() - t0) * 1e3 / runs


class SpeedMeter:
    """Samples the calibration kernel's time while active (a context
    manager); ``normalise`` rescales a measured interval afterwards."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> SpeedMeter:
        self._sample(None, None)  # so that ``normalise`` always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, normalised seconds) of the interval [t0, t1],
        both without the probes that ran inside it."""
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        near = [d for s, d in self.samples
                if t0 - PROBE_INTERVAL_S <= s <= t1 + PROBE_INTERVAL_S]
        if not near:
            near = [d for _, d in self.samples]
        wall = t1 - t0 - inside
        return wall, wall * PROBE_REF_MS * 1e-3 * len(near) / sum(near)
