"""Temporal-order maintenance of events with rollback directives.

Timewarp re-executes operations; a state update is a last-writer-wins
snapshot that needs no re-execution, so only events enter the log. The
delivery log records every applied event in order. When an event arrives
late (older than something already applied), the log emits a directive:
undo every applied event newer than the late one (newest first), then
apply the late event and re-apply the undone ones (oldest first). The game
owns its inverse records; this module only sequences the undo/apply calls.

One key names an event: order_key, (timestamp, sender_id, entity_id, seq).
It orders the log, ties by sender and then entity, and since a sender
numbers its seqs per entity, a delivery whose key the log holds is a
duplicate. A reused (sender, entity, seq) with another timestamp, as after
the sender's session restarts, is a new event. on_deliver builds the key
from one header unpack; an in-order event appends, otherwise one bisect
finds a duplicate or the directive's cut. The four outcome records are
immutable NamedTuples built with tuple.__new__; a record equals only a
record of its own type with equal fields, and hashes as its tuple.

A game callback that raises fails the delivery with CallbackFailure, and
the caller withdraws from the log, or does not commit, every event the
game does not hold.
"""

import bisect
from typing import NamedTuple

DEFAULT_HISTORY_WINDOW_MS = 2000

_new = tuple.__new__    # builds a NamedTuple record without its __new__


class CallbackFailure(Exception):
    """A game callback raised. For a directive it says how far the
    directive got: undone holds the events it undid and did not re-apply,
    and late_applied whether the game applied its late event."""

    undone: tuple = ()
    late_applied: bool = False


def order_key(msg) -> tuple[int, int, int, int]:
    return (msg.timestamp, msg.sender_id, msg.entity_id, msg.seq)


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
    undo: tuple            # newest first; re-applied oldest first
    key: tuple             # order_key(late)

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
        del self._applied[:cut]
        del self._keys[:cut]

    def on_deliver(self, msg, now: int):
        """Classify a delivery: Apply (committed), DropDuplicate,
        DropBeyondWindow, or a RollbackDirective.

        A directive does not mutate the log; call commit() once the game
        has applied the late event.
        """
        if now - self.history_window_ms > self._watermark:
            self.prune(now)
        sender, entity, seq, timestamp = msg[:4]
        if timestamp < self._watermark:
            return _new(DropBeyondWindow, (msg,))
        key = (timestamp, sender, entity, seq)
        keys = self._keys
        if not keys or key > keys[-1]:
            self._applied.append(msg)
            keys.append(key)
            return _new(Apply, (msg,))
        idx = bisect.bisect_left(keys, key)
        if keys[idx] == key:
            return _new(DropDuplicate, (msg,))
        return _new(RollbackDirective,
                    (msg, tuple(self._applied[idx:][::-1]), key))

    def commit(self, directive: RollbackDirective) -> None:
        """Record the late message once its directive has applied it."""
        # The index is looked up again rather than carried: a game callback
        # run by the directive can deliver into this log first (an event the
        # game sends is played out at once without sender-side lag), which
        # can prune, append or insert and so move the late message's place.
        late, _, key = directive
        idx = bisect.bisect_left(self._keys, key)
        self._applied.insert(idx, late)
        self._keys.insert(idx, key)

    def withdraw(self, msg) -> None:
        """Take back an applied event that the game no longer holds. It is
        found by its key, as commit finds its place, since a callback may
        have delivered into the log since."""
        key = order_key(msg)
        keys = self._keys
        idx = bisect.bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            del self._applied[idx]
            del keys[idx]


def apply_directive(callbacks, directive: RollbackDirective) -> int:
    """Run a directive against the game: undo newest-first, then apply the
    late event and re-apply the undone ones oldest-first. Returns the
    number of callback invocations.

    Any exception from a callback is wrapped in CallbackFailure, which
    says how far the directive got; an undo that raised leaves its event
    held.
    """
    late, undo, _ = directive
    done = 0
    try:
        undo_event = callbacks.undo_event
        apply_event = callbacks.apply_event
        for msg in undo:
            undo_event(msg)
            done += 1
        apply_event(late)
        done += 1
        for msg in reversed(undo):
            apply_event(msg)
            done += 1
    except Exception as exc:
        failure = CallbackFailure(f"game callback failed: {exc}")
        # done callbacks returned: up to len(undo) undos, then the late
        # event's apply and the re-applies of undo's oldest events
        n = len(undo)
        failure.undone = undo[:min(done, 2 * n + 1 - done)]
        failure.late_applied = done > n
        raise failure from exc
    return done
