"""What every workload shares: the outcome record and repeated set-up."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
"""Trace files, run records and scratch state; ignored by git."""

SETUP_REPEATS = (2, 50)
"""Fewest and most set-ups on each side of the measured window."""
SETUP_BUDGET_S = 1.5
"""Set-ups go on past the fewest until this much time has gone, so a
set-up of milliseconds still yields a median that one scheduling hiccup
cannot move.  Half the set-ups run after the window: interference on a
shared host lasts seconds, and set-ups taken a window apart do not all
see the same episode."""


@dataclass
class Outcome:
    """What one workload run produced, before it becomes metrics."""

    setups: list[tuple[float, float]]
    """``time.perf_counter`` stamps of the start and end of every set-up."""
    phases: list
    """Load phases in order (warm-up first); the last one is measured."""
    mismatches: list[str] = field(default_factory=list)
    """One line per output that disagreed with its oracle."""
    facts: dict = field(default_factory=dict)
    """Workload-specific numbers printed with the run."""
    host_bound: bool = True
    """Whether the measured load is paced by the processor, so that its
    times are taken on the host-corrected clock (:mod:`hostclock`), as
    set-up times always are.  An open loop is paced by its schedule and
    its batch timer instead, which a slow host does not stretch, so its
    times stay on the wall clock."""

    @property
    def measured(self):
        """The measured load phase."""
        return self.phases[-1]


def repeat_setup(build):
    """Run ``build()`` repeatedly; returns the last result and the start
    and end stamps of every run.

    Each earlier result is dropped before the next build starts, so the
    runs measure the same work on the same heap.  Workloads call this
    once before the measured window, keeping the result, and once after,
    for the stamps only; ``setup_s`` is the median over both.
    """
    fewest, most = SETUP_REPEATS
    stamps: list[tuple[float, float]] = []
    spent = 0.0
    result = None
    while len(stamps) < fewest or (spent < SETUP_BUDGET_S and len(stamps) < most):
        result = None
        start = time.perf_counter()
        result = build()
        stamps.append((start, time.perf_counter()))
        spent += stamps[-1][1] - start
    return result, stamps
