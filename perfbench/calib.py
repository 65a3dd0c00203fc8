"""The calibration loop that scales the benchmark's times to one machine speed.

On a shared machine the speed of a CPU drifts by tens of percent within
seconds.  The benchmark times this loop, a fixed piece of pure-Python work
of the kind lieyam does (exact fractions, dict stores, about 2 ms), next to
every timed call, and reports each time scaled by REF_MS over the loop's
time there: milliseconds of a machine that runs the loop in REF_MS.  The
loop runs no lieyam code, so a change to lieyam cannot move it.

It imports nothing but the standard library, so that a fresh interpreter
can load it without loading lieyam.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Median time of calibrate() on the machine the benchmark was defined on
# (2-vCPU Intel Xeon VM, Python 3.11): the speed every time is scaled to.
REF_MS = 1.8
ROUNDS = 13
_TERMS = [Fraction(i, i + 7) for i in range(1, 40)]


def calibrate() -> float:
    """Milliseconds taken by the calibration loop, run with the garbage
    collector off so that it times only its own arithmetic."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        seen = {}
        for k in range(ROUNDS):
            acc = Fraction(0)
            for i, a in enumerate(_TERMS):
                acc += a * _TERMS[-i - 1]
                seen[k, i] = acc
        return (perf_counter() - t0) * 1000
    finally:
        if enabled:
            gc.enable()
