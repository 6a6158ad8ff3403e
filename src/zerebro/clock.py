"""Deterministic millisecond clock for simulated runs.

Artifacts must be byte-identical across reruns, so anything that stamps
records (memory, ledger, event log) takes a clock callable instead of
reading wall time. SimClock ticks a fixed step per call.
"""

from __future__ import annotations

import itertools

EPOCH_MS = 1_700_000_000_000
STEP_MS = 1000


class SimClock:
    """Monotonic fake clock: each call returns start + STEP_MS * calls_so_far."""

    def __init__(self, start: int = EPOCH_MS):
        self._ticks = itertools.count(start, STEP_MS)

    def __call__(self) -> int:
        return next(self._ticks)
