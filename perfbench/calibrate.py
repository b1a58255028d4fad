"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark runs on shared machines whose speed swings by a third or more
over tens of seconds, in CPU time as much as in wall time, because other
tenants load the same cores, caches and memory.  Raw pass times then differ
more from run to run than the code changes a benchmark should catch.

So the benchmark times this kernel right before and right after every timed
pass and every set-up probe, and reports each time scaled to the kernel's
reference speed: ``t * reference_s / kernel_s``.  The kernel calls no pulsox
code, so a change to pulsox moves the scaled time exactly as it moves the raw
one, while a slow spell of the machine slows both and cancels.

The kernel is made of parts that stand in for the kinds of work the workloads
do: a pure-Python loop, float-to-text formatting, small-matrix linear algebra
and 2-D FFTs on a grid.  A workload is gauged with the parts that resemble its
own work.  ``REFERENCE_S`` holds each part's median time on the machine the
benchmark was tuned on (2 vCPUs, Python 3.11.7, numpy 2.4.6), so a scaled time
reads as seconds on that machine at its usual speed.
"""
from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20180707)
_VALUES = _RNG.standard_normal(20_000)
_SPD = [m @ m.T + np.eye(4) for m in _RNG.standard_normal((8, 4, 4))]
_GRID = _RNG.standard_normal((256, 256))


def _python():
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _format():
    text = ",".join(repr(float(v)) for v in _VALUES)
    return len(text) + len(",".join(map(repr, _VALUES.tolist())))


def _linalg():
    total = 0.0
    for _ in range(600):
        for m in _SPD:
            total += np.linalg.eigvalsh(m)[0] + (m @ m)[0, 0]
    return total


def _fft():
    total = 0.0
    for _ in range(30):
        total += np.fft.irfft2(np.fft.rfft2(_GRID) * 0.5, s=_GRID.shape)[0, 0]
        total += np.exp(-_GRID * _GRID)[0, 0]
    return total


PARTS = {"python": _python, "format": _format, "linalg": _linalg, "fft": _fft}
ALL = tuple(PARTS)
REFERENCE_S = {"python": 0.0200, "format": 0.0395, "linalg": 0.0515, "fft": 0.0744}


class Gauge:
    """Times the kernel made of ``parts`` and scales times to its reference speed."""

    def __init__(self, parts=ALL):
        self.parts = tuple(parts)
        self.reference_s = sum(REFERENCE_S[p] for p in self.parts)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel once, record its time and return it."""
        t0 = time.perf_counter()
        for part in self.parts:
            PARTS[part]()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between kernel samples ``before`` and ``after``,
        as seconds at the reference speed."""
        return seconds * self.reference_s / (0.5 * (before + after))
