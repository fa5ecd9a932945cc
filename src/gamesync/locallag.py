"""Local lag: playout buffering with per-object-class lag values.

Each buffered message becomes playable at timestamp + effective lag, where
the effective lag is the class's configured value, scaled down in strong
mode. Messages that are already past their playout deadline on arrival are
tagged Late and bypass the buffer entirely; buffering them further would
only postpone the repair, so the caller hands them to rollback immediately.
"""

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

from gamesync.regions import ConsistencyMode

DEFAULT_CLASS = "default"
DEFAULT_CRITICAL_SCALE = 0.5    # strong-mode lag scale


class NegativeLag(Exception):
    pass


@dataclass
class LagPolicy:
    """Lag per object class (ms) plus the strong-mode scale factor."""

    base_lag_ms: dict = field(default_factory=dict)
    critical_scale: float = DEFAULT_CRITICAL_SCALE
    default_lag_ms: int = 0

    def __post_init__(self):
        if not 0 < self.critical_scale <= 1:
            raise ValueError("critical_scale must be in (0, 1]")
        for class_id, lag in self.base_lag_ms.items():
            if lag < 0:
                raise NegativeLag(f"lag for {class_id!r} is negative")

    def lag_for(self, class_id: str) -> int:
        return self.base_lag_ms.get(class_id, self.default_lag_ms)

    def effective_lag(self, class_id: str, mode: ConsistencyMode) -> int:
        lag = self.lag_for(class_id)
        if mode is ConsistencyMode.STRONG:
            return int(lag * self.critical_scale + 0.5)
        return lag


class PlayoutEntry(NamedTuple):
    msg: object
    due: int
    arrived_at: int
    late: bool


class PlayoutBuffer:
    """Min-heap of pending entries, released in (due, timestamp, sender,
    seq) order. Late entries are returned tagged but never stored.

    The tie-break matches the rollback log's cross-sender order key, so a
    jitter-free run never releases in an order the log would repair."""

    def __init__(self, policy: LagPolicy):
        self.policy = policy
        self._heap: list = []
        self._counter = 0

    def __len__(self):
        return len(self._heap)

    def enqueue(self, msg, class_id: str, mode: ConsistencyMode,
                now: int) -> PlayoutEntry:
        due = msg.timestamp + self.policy.effective_lag(class_id, mode)
        late = now > due
        entry = PlayoutEntry(msg, due, now, late)
        if not late:
            key = (due, msg.timestamp, msg.sender_id, msg.seq, self._counter)
            self._counter += 1
            heapq.heappush(self._heap, (key, entry))
        return entry

    def release_due(self, now: int) -> list[PlayoutEntry]:
        """Pop every entry with due <= now, in deterministic release order."""
        released = []
        while self._heap and self._heap[0][0][0] <= now:
            released.append(heapq.heappop(self._heap)[1])
        return released
