"""Machine-speed calibration.

The 2-vCPU virtual machine this benchmark was written on alternates, for
seconds to tens of seconds at a time, between a fast state and a slow
one in which the same Python code takes 1.4 to 1.9 times as long.  A run
of half a minute can sit wholly in either state, so raw times of the same
code differ by that factor from run to run, and no repetition inside a run
removes it.

So every timed step is bracketed by a calibration: a fixed loop, owned by
the benchmark and never changed with the program, shaped like setmax's hot
loops (a list-of-rows table lookup tested against a bytearray).  A step's
time is reported scaled by REFERENCE_S / (the calibration's time beside
it), i.e. in seconds at the speed at which the calibration takes
REFERENCE_S.  That is the fast state of the machine the benchmark was
written on.  The raw times are kept in the run's report.
"""

from __future__ import annotations

import os
import time

# Fastest calibration time seen on the reference machine (2 vCPU Xeon,
# Python 3.11.7).  It fixes only the scale of the reported times: two
# runs on one machine are compared on the same scale whatever its value.
REFERENCE_S = 1.0e-3

CPUS = frozenset(os.sched_getaffinity(0))

_N = 81
_ROWS = [[(7 * a + 13 * b + 5) % _N for b in range(_N)] for a in range(_N)]


def _kernel() -> int:
    tally = 0
    for _ in range(18):
        member = bytearray(_N)
        chosen = []
        for c in range(_N):
            row = _ROWS[c]
            t = 0
            for b in chosen:
                t += member[row[b]]
            tally += t
            if (c * 5 + t) % 3 == 0:
                chosen.append(c)
                member[c] = 1
    return tally


def calibration_s(repeats: int = 7) -> float:
    """Fastest of a few timed runs of the calibration loop."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def factor() -> float:
    """Scale that converts a time measured now to reference-speed seconds."""
    return REFERENCE_S / calibration_s()


def _per_cpu() -> dict[int, float]:
    factors = {}
    for cpu in sorted(CPUS):
        os.sched_setaffinity(0, {cpu})
        factors[cpu] = factor()
    return factors


def factor_all_cpus() -> float:
    """Mean factor over all CPUs, for work that occupies every one of them
    (the worker pool).  The CPUs change speed independently of each other.
    Leaves the process free to run on any of them."""
    factors = _per_cpu()
    os.sched_setaffinity(0, CPUS)
    return sum(factors.values()) / len(factors)


def pin_fastest() -> float:
    """Pin this process to the CPU that is fastest now and return its
    factor.  Single-threaded work then runs on the CPU its calibration
    measured, instead of migrating to one in another state."""
    factors = _per_cpu()
    cpu = max(factors, key=factors.get)
    os.sched_setaffinity(0, {cpu})
    return factors[cpu]
