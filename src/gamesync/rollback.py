"""Temporal-order maintenance with rollback directives.

The delivery log records every applied message in timestamp order. When a
message arrives late (older than something already applied), the log emits a
directive: undo every applied message newer than the late one (newest
first), then replay the late message followed by the undone ones (oldest
first). The game owns state snapshotting; this module only sequences the
undo/apply calls.

Cross-sender timestamp ties order by (timestamp, sender_id, seq).
"""

import bisect
from dataclasses import dataclass

from gamesync.deadreckoning import EntityKinematics
from gamesync.pdu import StateUpdate

DEFAULT_HISTORY_WINDOW_MS = 2000


class CallbackFailure(Exception):
    pass


def order_key(msg) -> tuple[int, int, int]:
    return (msg.timestamp, msg.sender_id, msg.seq)


def stream_key(msg) -> tuple[int, int, int]:
    return (msg.sender_id, msg.entity_id, msg.seq)


@dataclass(frozen=True)
class Apply:
    msg: object


@dataclass(frozen=True)
class DropDuplicate:
    msg: object


@dataclass(frozen=True)
class DropBeyondWindow:
    msg: object


@dataclass(frozen=True)
class RollbackDirective:
    late: object
    undo: tuple            # newest first
    replay: tuple          # oldest first: late message then the undone ones


class DeliveryLog:
    """Applied messages in temporal order, bounded by a history window.

    Messages older than the pruned window are dropped (counted by the
    caller) instead of triggering an unbounded rollback.
    """

    def __init__(self, history_window_ms: int = DEFAULT_HISTORY_WINDOW_MS):
        self.history_window_ms = history_window_ms
        self._applied: list = []      # sorted by order_key
        self._keys: list = []
        self._seen: set = set()       # stream keys within the window
        self._watermark: int = 0

    def __len__(self):
        return len(self._applied)

    @property
    def applied(self) -> list:
        return list(self._applied)

    def prune(self, now: int) -> None:
        watermark = now - self.history_window_ms
        if watermark <= self._watermark:
            return
        self._watermark = watermark
        if not self._keys or self._keys[0][0] >= watermark:
            return
        # (watermark,) sorts before every key stamped at the watermark, so
        # entries stamped exactly at it stay.
        cut = bisect.bisect_left(self._keys, (watermark,))
        for dropped in self._applied[:cut]:
            self._seen.discard(stream_key(dropped))
        del self._applied[:cut]
        del self._keys[:cut]

    def on_deliver(self, msg, now: int):
        """Classify a delivery: Apply (committed), DropDuplicate,
        DropBeyondWindow, or a RollbackDirective.

        A directive does not mutate the log; call commit() after the game
        callbacks succeed so a callback failure leaves the log unchanged.
        """
        self.prune(now)
        if msg.timestamp < self._watermark:
            return DropBeyondWindow(msg)
        stream = stream_key(msg)
        if stream in self._seen:
            return DropDuplicate(msg)
        key = order_key(msg)
        if not self._applied or key >= self._keys[-1]:
            self._applied.append(msg)
            self._keys.append(key)
            self._seen.add(stream)
            return Apply(msg)
        idx = bisect.bisect_left(self._keys, key)
        newer = tuple(self._applied[idx:])
        return RollbackDirective(late=msg,
                                 undo=tuple(reversed(newer)),
                                 replay=(msg,) + newer)

    def commit(self, directive: RollbackDirective) -> None:
        """Record the late message once its directive has been applied."""
        key = order_key(directive.late)
        idx = bisect.bisect_left(self._keys, key)
        self._applied.insert(idx, directive.late)
        self._keys.insert(idx, key)
        self._seen.add(stream_key(directive.late))


def apply_directive(callbacks, directive: RollbackDirective) -> int:
    """Run a directive against the game: undo newest-first, then apply
    oldest-first. Returns the number of callback invocations.

    Any exception from a callback is wrapped in CallbackFailure; the caller
    must not commit the directive in that case.
    """
    calls = 0
    try:
        for msg in directive.undo:
            callbacks.undo_event(msg)
            calls += 1
        for msg in directive.replay:
            if isinstance(msg, StateUpdate):
                callbacks.apply_remote_state(
                    msg.entity_id,
                    EntityKinematics(msg.pos, msg.vel, msg.timestamp))
            else:
                callbacks.apply_event(msg)
            calls += 1
    except Exception as exc:
        raise CallbackFailure(f"game callback failed: {exc}") from exc
    return calls
