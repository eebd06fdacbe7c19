"""Host-speed normalisation of op times.

On the shared 2-vCPU host this benchmark was built on, the vCPU's speed
drifts by up to ~2x over seconds to tens of seconds: a fixed interpreter
loop reads 0.31-0.63 ms, a fixed run of small numpy operations 0.18-0.36
ms, a cache-hot scoring batch 1.3 ms or 2.6 ms, and thread CPU time
tracks wall time, so the process is not descheduled; the core itself
runs slower.  Raw per-run figures then spread by 15-35% (quartile
distance over median) between runs of identical code, more than any
bound worth having.

So every op's time is rescaled to a reference speed.  :func:`probe`
times both fixed kernels and returns the host's slowness: the mean of
their times over their reference times, 1.0 at the reference speed.
One probe runs between consecutive ops and a :class:`Sampler` adds one
every :data:`SAMPLE_INTERVAL_S` inside long ops; an op's time, less the
probes inside it, is divided by the mean slowness over the op.  On
110 s traces split into 10 s windows, this cut the spread of the mean
op time from 0.18 to 0.03 for cold scoring and from 0.29 to 0.05 for
cache-hot scoring; the interpreter loop alone left 0.06 and 0.11.  The
probe is the benchmark's own code and never touches the program, so a
change in the program moves the rescaled times one for one; the raw
figures of every run are kept in its ``meta`` record.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

__all__ = ["Sampler", "probe", "rescale"]

#: Iterations of the interpreter loop, and its time at reference speed.
LOOP_ITERATIONS = 5000
LOOP_REFERENCE_S = 3.0e-4
#: Rounds of the small-array kernel, and its time at reference speed.
ARRAY_ROUNDS = 60
ARRAY_REFERENCE_S = 1.8e-4
#: Period of the probes a :class:`Sampler` takes inside ops.
SAMPLE_INTERVAL_S = 0.1

_VALUES = np.random.default_rng(0).random(64)
_INDEX = np.random.default_rng(1).integers(0, 64, 64)


def probe() -> float:
    """The host's slowness now: 1.0 at the reference speed, 2.0 at half."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i
    t1 = time.perf_counter()
    for _ in range(ARRAY_ROUNDS):
        (_VALUES[_INDEX] * 2.0 + _VALUES).sum()
    t2 = time.perf_counter()
    return ((t1 - t0) / LOOP_REFERENCE_S + (t2 - t1) / ARRAY_REFERENCE_S) / 2


def rescale(seconds, slowness) -> np.ndarray:
    """Times at the reference speed, from each op's mean slowness."""
    return np.asarray(seconds) / np.asarray(slowness)


class Sampler:
    """Probes the host every :data:`SAMPLE_INTERVAL_S` from SIGALRM.

    The handler runs on the main thread between bytecodes, so a probe
    lands inside whatever op is running; :meth:`inside` returns the
    probes taken in an interval, whose durations the caller subtracts
    from the op's time.  Use only around single-threaded work.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.readings: list[float] = []
        self._probing = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe(self) -> float:
        """A probe between ops, which the timer does not interrupt."""
        self._probing = True
        try:
            return probe()
        finally:
            self._probing = False

    def _sample(self, signum, frame) -> None:
        if self._probing:
            return
        start = time.perf_counter()
        reading = probe()
        self.durations.append(time.perf_counter() - start)
        self.readings.append(reading)
        self.starts.append(start)

    def inside(self, t0: float, t1: float) -> tuple[list[float], float]:
        """Readings of the probes started in ``[t0, t1)``, and their
        total duration."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.readings[lo:hi], sum(self.durations[lo:hi])
