"""Temporal-order maintenance of events with rollback directives.

Timewarp re-executes operations; a state update is a last-writer-wins
snapshot that needs no re-execution, so only events enter the log. The
delivery log records every applied event in timestamp order. When an event
arrives late (older than something already applied), the log emits a
directive: undo every applied event newer than the late one (newest
first), then apply the late event followed by the undone ones (oldest
first). The game owns its inverse records; this module only sequences the
undo/apply calls.

Cross-sender timestamp ties order by (timestamp, sender_id, seq).

Each delivery is classified in one pass: the message's header is unpacked
once, and its stream key (sender_id, entity_id, seq) and order key
(timestamp, sender_id, seq) are built from that one unpack; order_key and
stream_key are the definitions those keys follow. The log is pruned only
when the history window has moved past its watermark. The four outcome
records (Apply, DropDuplicate, DropBeyondWindow, RollbackDirective) are
immutable NamedTuples built with tuple.__new__, since one is built for
every event played out. Unlike plain tuples, a record equals only a record
of its own type with equal fields, and hashes as its tuple.

A game callback that raises fails the delivery the same way on both paths,
with CallbackFailure, and leaves the log as it was before the delivery: a
directive is committed only after its callbacks all succeed, and an
applied event is taken back out of the log (DeliveryLog.withdraw) when its
apply_event raises.
"""

import bisect
from typing import NamedTuple

DEFAULT_HISTORY_WINDOW_MS = 2000

_new = tuple.__new__    # builds a NamedTuple record without its __new__


class CallbackFailure(Exception):
    pass


def order_key(msg) -> tuple[int, int, int]:
    return (msg.timestamp, msg.sender_id, msg.seq)


def stream_key(msg) -> tuple[int, int, int]:
    return (msg.sender_id, msg.entity_id, msg.seq)


def _record_eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _record_ne(self, other):
    return type(other) is not type(self) or tuple.__ne__(self, other)


class Apply(NamedTuple):
    msg: object

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__


class DropDuplicate(NamedTuple):
    msg: object

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__


class DropBeyondWindow(NamedTuple):
    msg: object

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__


class RollbackDirective(NamedTuple):
    late: object
    undo: tuple            # newest first
    replay: tuple          # oldest first: late message then the undone ones
    key: tuple             # order_key(late)
    stream: tuple          # stream_key(late)

    __eq__ = _record_eq
    __ne__ = _record_ne
    __hash__ = tuple.__hash__


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
        seen = self._seen
        for dropped in self._applied[:cut]:
            seen.discard(dropped[:3])     # its stream key
        del self._applied[:cut]
        del self._keys[:cut]

    def on_deliver(self, msg, now: int):
        """Classify a delivery: Apply (committed), DropDuplicate,
        DropBeyondWindow, or a RollbackDirective.

        A directive does not mutate the log; call commit() after the game
        callbacks succeed so a callback failure leaves the log unchanged.
        """
        if now - self.history_window_ms > self._watermark:
            self.prune(now)
        sender, entity, seq, timestamp = msg[:4]
        if timestamp < self._watermark:
            return _new(DropBeyondWindow, (msg,))
        stream = (sender, entity, seq)
        if stream in self._seen:
            return _new(DropDuplicate, (msg,))
        key = (timestamp, sender, seq)
        keys = self._keys
        if not keys or key >= keys[-1]:
            self._applied.append(msg)
            keys.append(key)
            self._seen.add(stream)
            return _new(Apply, (msg,))
        newer = self._applied[bisect.bisect_left(keys, key):]
        return _new(RollbackDirective, (msg, tuple(newer[::-1]),
                                        (msg, *newer), key, stream))

    def commit(self, directive: RollbackDirective) -> None:
        """Record the late message once its directive has been applied."""
        # The index is looked up again rather than carried: a game callback
        # run by the directive can deliver into this log first (an event the
        # game sends is played out at once without sender-side lag), which
        # can prune, append or insert and so move the late message's place.
        late, _, _, key, stream = directive
        idx = bisect.bisect_left(self._keys, key)
        self._applied.insert(idx, late)
        self._keys.insert(idx, key)
        self._seen.add(stream)

    def withdraw(self, msg) -> None:
        """Take back an event that on_deliver applied, because the game
        failed to apply it. The event is found by its order key, as commit
        finds its place: a callback may have delivered into the log since,
        and events of one sender's different entities can share an order
        key, so the entry is the one holding this very message."""
        key = order_key(msg)
        keys, applied = self._keys, self._applied
        idx = bisect.bisect_left(keys, key)
        while idx < len(keys) and keys[idx] == key:
            if applied[idx] is msg:
                del applied[idx]
                del keys[idx]
                self._seen.discard(stream_key(msg))
                return
            idx += 1


def apply_directive(callbacks, directive: RollbackDirective) -> int:
    """Run a directive against the game: undo newest-first, then apply
    oldest-first. Returns the number of callback invocations.

    Any exception from a callback is wrapped in CallbackFailure; the caller
    must not commit the directive in that case.
    """
    _, undo, replay, _, _ = directive
    try:
        undo_event = callbacks.undo_event
        apply_event = callbacks.apply_event
        for msg in undo:
            undo_event(msg)
        for msg in replay:
            apply_event(msg)
    except Exception as exc:
        raise CallbackFailure(f"game callback failed: {exc}") from exc
    return len(undo) + len(replay)
