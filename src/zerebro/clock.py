"""Deterministic millisecond clock for simulated runs.

Artifacts must be byte-identical across reruns, so anything that stamps
records (memory, ledger, event log) takes a clock callable instead of
reading wall time. SimClock ticks a fixed step per call.
"""

from __future__ import annotations

import threading

EPOCH_MS = 1_700_000_000_000
STEP_MS = 1000


class SimClock:
    """Monotonic fake clock: each call returns EPOCH_MS + STEP_MS * calls_so_far."""

    def __init__(self):
        self._now = EPOCH_MS
        self._lock = threading.Lock()

    def __call__(self) -> int:
        with self._lock:
            now = self._now
            self._now += STEP_MS
            return now

    @classmethod
    def after(cls, timestamp: int) -> "SimClock":
        """A clock whose first tick is STEP_MS after timestamp: a resumed
        run stamps on from its last record instead of restarting."""
        clock = cls()
        clock._now = timestamp + STEP_MS
        return clock
