"""Machine-speed probe: a fixed reference kernel timed next to each measurement.

Small shared virtual machines change speed from minute to minute: on the
machine described in ``MEASUREMENTS.md`` the same ``rq_conv`` passes took
between 4.6 s and 6.8 s over five runs.  No amount of repetition inside a run
removes a slowdown that lasts the whole run, so every timing is also divided
by the machine's speed at that moment.

The speed comes from a reference kernel that belongs to the benchmark, not to
the program: a few small dense products with ReLU and a short loop of
dictionary updates, the same mix of numpy and interpreter work one
branch-and-bound node costs.  Right after a timed call the probe runs the
kernel for a fixed share of that call's duration; the ratio of its time to
:data:`REFERENCE_UNIT_S` per unit is the slowdown, about 1.0 on the machine
described in ``MEASUREMENTS.md``.

A change to the program does not change the kernel's work, but it can move
the kernel's time through what the two share in one process: the heap, the
CPU caches, the allocator's state.  So the normalised timings are seconds at
the reference machine's speed, not the program's own seconds, and ``run.py``
prints the raw wall seconds beside each of them.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one kernel unit takes on the reference machine.
REFERENCE_UNIT_S = 24e-6
#: Probe time as a share of the timed call it follows.
PROBE_SHARE = 0.05
#: Fewest units per probe (about 2 ms), so short calls get a usable reading.
MIN_UNITS = 80


class SpeedProbe:
    """Runs the reference kernel and reports how slow the machine was."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._weights = (rng.standard_normal((32, 49)) * 0.2,
                         rng.standard_normal((32, 32)) * 0.2,
                         rng.standard_normal((4, 32)))
        self._input = rng.standard_normal((49, 4))
        self._seconds = 0.0
        self._units = 0

    def _unit(self) -> None:
        hidden = self._input
        for weight in self._weights:
            hidden = np.maximum(weight @ hidden, 0.0)
        counts = {}
        for key in range(100):
            counts[key % 17] = counts.get(key % 17, 0) + key

    def follow(self, elapsed: float) -> None:
        """Run the kernel for ``PROBE_SHARE`` of a call that took ``elapsed``."""
        units = max(MIN_UNITS, int(PROBE_SHARE * elapsed / REFERENCE_UNIT_S))
        start = time.perf_counter()
        for _ in range(units):
            self._unit()
        self._seconds += time.perf_counter() - start
        self._units += units

    def slowdown(self) -> float:
        """The slowdown over all probes since the last call; then start afresh.

        The probes are weighted by length, so a set of calls is divided by the
        machine's speed averaged over the time they took.
        """
        slowdown = self._seconds / (self._units * REFERENCE_UNIT_S)
        self._seconds, self._units = 0.0, 0
        return slowdown
