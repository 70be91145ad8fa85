"""The virtual clock every execution runs under.

All durations in the engine are integer milliseconds. The clock only moves
when explicitly advanced: by node latencies in the scheduler, by memory
retrieval and by simulated user wait in the supervisor. That makes latency
measurements deterministic and lets the scheduler replay identical timelines
for a fixed seed.
"""

from __future__ import annotations


class VirtualClock:
    """Simulated time source advancing by explicit deltas (milliseconds)."""

    def __init__(self):
        self._now_ms = 0

    def now_ms(self) -> int:
        return self._now_ms

    def advance(self, delta_ms: int) -> int:
        if delta_ms < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now_ms += int(delta_ms)
        return self._now_ms

    def advance_to(self, t_ms: int) -> int:
        if t_ms < self._now_ms:
            raise ValueError(
                f"cannot advance backwards from {self._now_ms} to {t_ms}"
            )
        self._now_ms = int(t_ms)
        return self._now_ms
