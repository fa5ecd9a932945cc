"""Local lag: the playout buffer.

Each buffered message becomes playable at timestamp + lag, where the lag is
the one the caller hands over with the message (the player manager takes it
from the entity's class policy, scaled down in strong mode). Messages that
are already past their playout deadline on arrival are tagged Late and
bypass the buffer entirely; buffering them further would only postpone the
repair, so the caller hands them to rollback immediately. Entries due at
one time are released in the rollback log's order, the same for every viewer.
"""

import heapq
from typing import NamedTuple

_new = tuple.__new__    # builds a NamedTuple record without its __new__


class PlayoutEntry(NamedTuple):
    msg: object
    due: int
    late: bool


class PlayoutBuffer:
    """Min-heap of pending entries, released in (due, timestamp, sender,
    entity, seq) order. Late entries are returned tagged but never stored.

    The tie-break is the rollback log's order key, so a jitter-free run
    never releases in an order the log would repair; an arrival counter
    ends the key, so two entries are never compared by their messages."""

    def __init__(self):
        # (key, entry) pairs; a key starts with the entry's due time. Read
        # only outside this class: a caller may look at the head to skip
        # release_due when nothing is due.
        self.heap: list = []
        self._counter = 0

    def __len__(self):
        return len(self.heap)

    def enqueue(self, msg, lag_ms: int, now: int) -> PlayoutEntry:
        sender, entity, seq, timestamp = msg[:4]
        due = timestamp + lag_ms
        late = now > due
        entry = _new(PlayoutEntry, (msg, due, late))
        if not late:
            key = (due, timestamp, sender, entity, seq, self._counter)
            self._counter += 1
            heapq.heappush(self.heap, (key, entry))
        return entry

    def release_due(self, now: int) -> list[PlayoutEntry]:
        """Pop every entry with due <= now, in deterministic release order."""
        released = []
        while self.heap and self.heap[0][0][0] <= now:
            released.append(heapq.heappop(self.heap)[1])
        return released
