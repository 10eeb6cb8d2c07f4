"""A clock corrected for the speed of a shared host.

Other tenants of a shared host slow this process down by up to 1.9x, for
stretches from a second to more than a minute, so a whole run can fall
into one.  On a 2-vCPU VM the process's CPU time slowed by the same
factor as its wall time: the slowdown is contention for the core, not
time taken from it, and no clock the process can read leaves it out.

:class:`HostClock` measures the host's speed instead.  Every
:data:`EVERY_S` a ``SIGALRM`` handler times :func:`probe`, a fixed
routine of interpreter and numpy work that shares no code with
``repro``, in the main thread, wherever the program happens to be.
Between two probes the host is taken to run at the mean of their
speeds, each speed being :data:`REFERENCE_S` over the probe's time.  :meth:`HostClock.span` turns
two ``time.perf_counter`` stamps into the seconds the work between them
takes on a host where the probe takes :data:`REFERENCE_S`.  A slowdown
of the program (a longer flush, a garbage-collection pause) leaves the
probe alone and stays in the numbers; a slowdown of the host slows the
probe as well and is divided out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

EVERY_S = 0.1
"""Time between probes.  A probe costs about 0.3 ms, so 0.3% of the run."""
REFERENCE_S = 100e-6
"""The probe's time on the reference host, a round figure near its best
on a quiet 2-vCPU VM (90-130 µs).  Reported times are scaled to a host
this fast."""

_RNG = np.random.default_rng(0)
_LEFT, _RIGHT = _RNG.integers(0, 40, size=(2, 5_000))
_VALUES = _RNG.random(5_000)


class _Box:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def probe() -> float:
    """Best of three timings of a fixed routine: dict, call, attribute
    and allocation work in the interpreter, then a contingency count and
    a masked sum in numpy, about 50 µs each on a quiet 2-vCPU VM.

    The mix matters.  On a loaded host the interpreter half slowed by up
    to 1.9x and a numpy half alone by up to 1.5x.  Over 80 s of
    back-to-back SQL queries, ``Guardrail`` fits and synthesis calls on
    that host, each one's wall time grew as this probe's time to the
    power 1.16, 0.89 and 0.82-0.85; as the interpreter half's to the
    power 0.96, 0.76 and 0.64-0.74.  None of the other blends tried,
    with other weights or larger numpy arrays, came closer to 1 on all
    three.
    """
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        start = clock()
        counts: dict = {}
        names = []
        for i in range(120):
            key = (i & 15, i & 7)
            counts[key] = counts.get(key, 0) + _Box(i).value
            names.append(f"{i}")
        table = np.bincount(_LEFT * 40 + _RIGHT, minlength=1600)
        (_VALUES[_LEFT > 20] * 2.0).sum() + table.max()
        best = min(best, clock() - start)
    return best


class HostClock:
    """Host-speed probes over a ``with`` block, and the corrected clock
    they define.  Every stamp given to :meth:`span` must come from
    ``time.perf_counter`` inside the block."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._previous = None
        self._at = np.zeros(0)
        self._reference = np.zeros(0)

    def _sample(self, *_) -> None:
        at = time.perf_counter()
        self._samples.append((at, probe()))

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        at, cost = np.array(self._samples).T
        speed = REFERENCE_S / cost
        reference = np.concatenate(([0.0], np.cumsum(np.diff(at) * (speed[:-1] + speed[1:]) / 2)))
        self._at, self._reference = at, reference

    def span(self, start, end):
        """Reference-host seconds from ``start`` to ``end`` (numbers or arrays)."""
        return np.interp(end, self._at, self._reference) - np.interp(start, self._at, self._reference)

    @property
    def slowdown(self) -> float:
        """Wall-clock seconds per reference second over the whole block."""
        return float((self._at[-1] - self._at[0]) / self._reference[-1])

    @property
    def probes(self) -> int:
        """How many probes were taken."""
        return len(self._samples)
