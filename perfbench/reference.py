"""A fixed reference computation that tracks the speed of a shared host.

On a shared host the same work can take 30 % longer for minutes at a time,
because other tenants contend for the caches and memory bandwidth.  The
reference computation does not depend on the code under test: numpy sorts,
a unique, a masked reduction over an array larger than the caches, and an
interpreter-bound dictionary loop, the mix the library's own hot paths are
made of.  Timed between operations, it slows down with the host, so an
operation's latency divided by it keeps the program's own cost and drops
most of the host's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds of a pass per reference sample.
SAMPLE_INTERVAL_S = 1.0

_ARRAYS: tuple | None = None


def _arrays() -> tuple:
    global _ARRAYS
    if _ARRAYS is None:
        rng = np.random.default_rng(0)
        _ARRAYS = (rng.integers(0, 1 << 30, 1 << 18), rng.random(1 << 22))
    return _ARRAYS


def reference_s() -> float:
    """Wall seconds of one run of the reference computation."""
    keys, values = _arrays()
    started = time.perf_counter()
    np.sort(keys)
    np.unique(keys[: 1 << 16])
    float(values[values > 0.5].sum())
    table: dict = {}
    for i in range(25_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - started


class HostSampler:
    """About one reference sample per ``SAMPLE_INTERVAL_S`` of a pass.

    ``catch_up`` is called between operations, never inside one.  It takes
    the samples owed for the time since the pass started, so a pass of a
    few long operations is sampled as densely as one of many short ones.
    """

    #: Most samples one call takes, so one long operation adds no long pause.
    MAX_BURST = 4

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._started = time.perf_counter()

    def catch_up(self) -> None:
        owed = int((time.perf_counter() - self._started) / SAMPLE_INTERVAL_S) + 1
        for _ in range(min(owed - len(self.samples), self.MAX_BURST)):
            self.samples.append(reference_s())

    def median(self) -> float:
        """Median reference seconds of the pass so far (at least one sample)."""
        self.catch_up()
        return statistics.median(self.samples)
