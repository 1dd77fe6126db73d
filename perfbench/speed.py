"""Machine-speed probe that runs alongside the measured code.

On a VM that shares its host, the same pass can take 1.8 times longer from one
minute to the next, with CPU time tracking wall time: the CPU itself runs
slower while other tenants load the host.  Medians and minima over a run do
not remove that drift, because it lasts longer than a run.

``SpeedProbe`` samples the speed during the measured code instead.  A
SIGALRM interval timer fires every ``INTERVAL_S`` of wall time, and its
handler, which runs in the measured thread between two bytecodes, times a
fixed piece of pure-Python work (dict updates, attribute reads, calls, float
math; it allocates nothing the garbage collector tracks).  The mean probe
time over ``REFERENCE_PROBE_S`` is the slowdown of the CPU during the
measured code, and a wall time divided by it is the time the code would take
on the reference machine.  The probe shares no code with legfol, so a change
to legfol moves the rescaled time exactly as it moves the wall time.

The probe costs about 1% of the measured time (0.25 ms every 25 ms), and
this share is the same on every run.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.025
PROBE_ITERATIONS = 600
# Typical mean probe time on the reference machine, a 2-vCPU Intel Xeon VM
# at 2.0 GHz running CPython 3.11.  It fixes the scale of the rescaled times
# and nothing else.
REFERENCE_PROBE_S = 3.0e-4
# Probe runs before the timer starts, so that a fresh interpreter's first,
# unspecialised runs of the probe are not sampled.
WARMUP_RUNS = 20

_KEYS = [("v", i) for i in range(32)]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


_POINT = _Point(0.5, 0.25)


def _step(point: _Point, i: int, acc: float) -> float:
    return point.x * i - point.y * acc * 1e-3


def probe_work(iterations: int = PROBE_ITERATIONS) -> float:
    """A fixed piece of interpreter work, the unit the probe times."""
    table = dict.fromkeys(_KEYS, 0.0)
    acc = 0.0
    point = _POINT
    for i in range(iterations):
        key = _KEYS[i & 31]
        table[key] = table[key] + math.sin(i * 0.1)
        acc += _step(point, i, acc)
    return acc


class SpeedProbe:
    """Context manager that samples the probe time every ``INTERVAL_S``.

    Only one may be active at a time, in the main thread.  On exit the timer
    and the previous SIGALRM handler are restored; if the timer never fired,
    the probe runs once so that ``slowdown`` always has a sample.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        for _ in range(WARMUP_RUNS):
            probe_work()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._handler(signal.SIGALRM, None)

    def slowdown(self) -> float:
        """Mean probe time relative to the reference machine's."""
        return statistics.fmean(self.samples) / REFERENCE_PROBE_S
