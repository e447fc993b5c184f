"""Machine-speed probe used to scale timings to a reference speed.

On the shared virtual machines this benchmark was built on, the speed of
a CPU-bound Python process drifts by up to 2x within seconds and by 30 %
between minutes-long phases, with zero steal time (neighbours contend for
caches and cores).  So every timed job is bracketed and sampled by a
probe: a fixed exact `Fraction` row reduction, shaped like projarr's hot
path.  `EDGE` probes run right before and after the job, and while it
runs a SIGVTALRM handler times one probe every `INTERVAL_S` of CPU time.
A job's scaled time is its wall time minus the probes inside it, times
REFERENCE_S over the mean probe time: the time the job would take on a
machine where one probe takes REFERENCE_S.  The probe is benchmark code,
so a change to projarr moves the scaled time exactly as it moves the
wall time.

On five 40 s hyperplane-ring runs, the spread of the run's `wall_s`
over seeds was 11.8 % raw, 10.2 % with probes only around each job and
3.6 % with sampling inside it; sampling costs about 2 % of a job's time,
which is subtracted.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0019  # mean probe time over the runs above
INTERVAL_S = 0.1
EDGE = 10

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(9)] for i in range(8)]


def _rref(m):
    rows = [list(r) for r in m]
    top = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        p = rows[top][col]
        rows[top] = [x / p for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        top += 1
    return rows


def probe_s() -> float:
    """Seconds taken by one probe now."""
    start = time.perf_counter()
    _rref(_MATRIX)
    return time.perf_counter() - start


def edge() -> list[float]:
    return [probe_s() for _ in range(EDGE)]


class Sampler:
    """Context manager timing one probe every INTERVAL_S of CPU time."""

    def __init__(self):
        self.inside: list[float] = []

    def _on_tick(self, signum, frame):
        self.inside.append(probe_s())

    def __enter__(self):
        self.inside = []
        signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def scaled(seconds: float, before: list[float], inside: list[float], after: list[float]) -> float:
    """Wall `seconds` of an interval, probes `inside` it removed, at the
    reference speed measured by all the probes."""
    probes = before + inside + after
    return (seconds - sum(inside)) * REFERENCE_S * len(probes) / sum(probes)
