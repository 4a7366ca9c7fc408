"""Benchmark-side measurement state for one pass of a workload.

A :class:`Recorder` collects everything a pass measures from outside the
library: named spans around public layer calls, the set-up / run wall
totals that exclude correctness checks, operation accounting (attempted,
failed, exception types), correctness-check failures, and the outputs
digest that lets two commits compare what they computed.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from reference import HostSampler


class Recorder:
    """Spans, timings, operation counts and checks of one workload pass."""

    def __init__(self, traced: bool = False, sample_host: bool = False) -> None:
        self.traced = traced
        #: Reference samples of the host's speed, taken between operations.
        self.host = HostSampler() if sample_host else None
        #: Span name -> durations in seconds, in call order.
        self.spans: dict[str, list[float]] = defaultdict(list)
        #: Free-form per-pass samples (counts, booked band of each quote, ...).
        self.values: dict[str, list] = defaultdict(list)
        #: Wall seconds of the timed set-up / run work (checks excluded).
        self.setup_s = 0.0
        self.run_s = 0.0
        #: Latency of each unit operation of the run (build, plan round, quote),
        #: keyed by an id that names the same operation in every pass.
        self.op_s: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.check_failures: list[str] = []
        self._digest = hashlib.sha256()
        #: Kernel name -> [calls, seconds], filled by the traced pass only.
        self.kernels: dict[str, list] = {}

    @contextmanager
    def span(self, name: str):
        """Time one call into a layer under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name].append(time.perf_counter() - started)

    def op(self, kind: str, span: str, fn, *args, **kwargs):
        """Run one operation: counted, timed under ``span``, failure-tolerant.

        Returns ``(ok, value, seconds)``.  An exception is counted against
        ``kind`` with its type name and swallowed, so the pass continues
        where the state allows.
        """
        if self.host is not None:
            self.host.catch_up()
        self.attempted += 1
        started = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - failure accounting boundary
            seconds = time.perf_counter() - started
            self.failed += 1
            self.errors[f"{kind}:{type(error).__name__}"] += 1
            return False, None, seconds
        seconds = time.perf_counter() - started
        self.spans[span].append(seconds)
        return True, value, seconds

    def check(self, ok: bool, message: str) -> None:
        """Record a correctness check; a failure marks the run invalid."""
        if not ok:
            self.check_failures.append(message)

    def digest_update(self, *parts) -> None:
        """Fold outputs into the pass digest (floats by exact hex form)."""
        for part in parts:
            if isinstance(part, float):
                part = part.hex()
            if not isinstance(part, bytes):
                part = repr(part).encode()
            self._digest.update(part)
            self._digest.update(b"|")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()
