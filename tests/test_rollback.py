"""Temporal ordering: rollback directive construction and application."""

import itertools
import random

import pytest

from gamesync.pdu import EventKind, EventMessage
from gamesync.rollback import (Apply, CallbackFailure, DeliveryLog,
                               DropBeyondWindow, DropDuplicate,
                               RollbackDirective, apply_directive, order_key,
                               stream_key)


def ev(ts, seq=None, sender=0, entity=0):
    return EventMessage(sender, entity, ts if seq is None else seq, ts,
                        EventKind.FIRE, b"\x00" * 8)


class SpyGame:
    """Applies and undoes against an explicit ordered list, recording the
    callback trace; the mirror list is the independent check that directive
    application reproduces sorted order."""

    def __init__(self, fail_on=None):
        self.sequence = []
        self.trace = []
        self.fail_on = fail_on

    def apply_event(self, msg):
        if self.fail_on is not None and msg.timestamp == self.fail_on:
            raise RuntimeError("boom")
        self.trace.append(("apply", msg.timestamp))
        self.sequence.append(msg)

    def undo_event(self, msg):
        self.trace.append(("undo", msg.timestamp))
        assert self.sequence and self.sequence[-1] is msg, \
            "undo must arrive newest-first"
        self.sequence.pop()


def deliver(log, game, msg, now=None):
    now = msg.timestamp if now is None else now
    outcome = log.on_deliver(msg, now)
    if isinstance(outcome, Apply):
        game.apply_event(msg)
    elif isinstance(outcome, RollbackDirective):
        apply_directive(game, outcome)
        log.commit(outcome)
    return outcome


def test_first_message_applies():
    log = DeliveryLog()
    assert isinstance(log.on_deliver(ev(100), 100), Apply)
    assert [m.timestamp for m in log.applied] == [100]


def test_late_message_directive_matches_sort_oracle():
    log = DeliveryLog()
    game = SpyGame()
    for ts in (100, 130, 140):
        deliver(log, game, ev(ts))
    late = ev(120)
    outcome = log.on_deliver(late, 140)
    assert isinstance(outcome, RollbackDirective)
    assert [m.timestamp for m in outcome.undo] == [140, 130]
    assert [m.timestamp for m in outcome.replay] == [120, 130, 140]
    # oracle: sorting the four timestamps fixes the replay suffix
    assert [m.timestamp for m in outcome.replay] == \
        sorted([120, 130, 140])


def test_duplicate_dropped_and_never_a_directive():
    log = DeliveryLog()
    first = ev(100, seq=1)
    log.on_deliver(first, 100)
    assert isinstance(log.on_deliver(first, 150), DropDuplicate)
    assert len(log) == 1


def test_callback_trace_for_late_event():
    log = DeliveryLog()
    game = SpyGame()
    for ts in (100, 130, 140):
        deliver(log, game, ev(ts))
    deliver(log, game, ev(120), now=141)
    assert game.trace == [("apply", 100), ("apply", 130), ("apply", 140),
                          ("undo", 140), ("undo", 130),
                          ("apply", 120), ("apply", 130), ("apply", 140)]
    assert [m.timestamp for m in game.sequence] == [100, 120, 130, 140]


def test_directive_with_empty_undo_is_single_apply():
    late = ev(50)
    directive = RollbackDirective(late=late, undo=(), replay=(late,),
                                  key=order_key(late), stream=stream_key(late))
    game = SpyGame()
    assert apply_directive(game, directive) == 1
    assert game.trace == [("apply", 50)]


def test_two_successive_late_messages():
    log = DeliveryLog()
    game = SpyGame()
    for ts in (100, 130, 140):
        deliver(log, game, ev(ts))
    deliver(log, game, ev(120), now=141)
    deliver(log, game, ev(110), now=142)
    assert [m.timestamp for m in game.sequence] == [100, 110, 120, 130, 140]
    assert [m.timestamp for m in log.applied] == [100, 110, 120, 130, 140]


def test_rollback_minimality():
    log = DeliveryLog()
    for ts in (100, 115, 130, 145):
        log.on_deliver(ev(ts), ts)
    outcome = log.on_deliver(ev(120), 150)
    assert len(outcome.undo) == sum(1 for t in (100, 115, 130, 145) if t > 120)


def test_order_equivalence_exhaustive_permutations():
    """Any arrival order of 5 distinct-timestamp events ends in sorted order."""
    timestamps = [100, 110, 120, 130, 140]
    msgs = [ev(t) for t in timestamps]
    for perm in itertools.permutations(msgs):
        log = DeliveryLog()
        game = SpyGame()
        for i, m in enumerate(perm):
            deliver(log, game, m, now=200 + i)
        assert [m.timestamp for m in game.sequence] == timestamps
        assert [m.timestamp for m in log.applied] == timestamps


def test_order_equivalence_seeded_random_streams():
    rng = random.Random(1234)
    for _ in range(100):
        n = 30
        msgs = [ev(100 + 10 * i, seq=i, sender=rng.randrange(3)) for i in range(n)]
        arrival = sorted(msgs, key=lambda m: (m.timestamp + rng.randrange(0, 80),
                                              m.seq))
        log = DeliveryLog(history_window_ms=10**9)
        game = SpyGame()
        for i, m in enumerate(arrival):
            deliver(log, game, m, now=1000 + i)
        assert [order_key(m) for m in game.sequence] == \
            sorted(order_key(m) for m in msgs)


def test_cross_sender_tie_order():
    log = DeliveryLog()
    a = ev(100, seq=1, sender=2)
    b = ev(100, seq=1, sender=1)
    log.on_deliver(a, 100)
    outcome = log.on_deliver(b, 101)
    # sender 1 sorts before sender 2 at the same timestamp
    assert isinstance(outcome, RollbackDirective)
    log.commit(outcome)
    assert [(m.timestamp, m.sender_id) for m in log.applied] == [(100, 1), (100, 2)]


def test_beyond_window_dropped():
    log = DeliveryLog(history_window_ms=2000)
    log.on_deliver(ev(5000), 5000)
    outcome = log.on_deliver(ev(100), 5001)
    assert isinstance(outcome, DropBeyondWindow)
    assert len(log) == 1


def test_pruning_forgets_old_entries():
    log = DeliveryLog(history_window_ms=2000)
    log.on_deliver(ev(100, seq=1), 100)
    log.on_deliver(ev(5000, seq=2), 5000)   # prunes ts=100
    assert [m.timestamp for m in log.applied] == [5000]
    # duplicate of the pruned message now falls beyond the window
    assert isinstance(log.on_deliver(ev(100, seq=1), 5001), DropBeyondWindow)


def test_pruning_many_entries_at_once():
    log = DeliveryLog(history_window_ms=1000)
    for ts in range(0, 1001, 10):
        log.on_deliver(ev(ts), ts)
    assert len(log) == 101
    log.on_deliver(ev(2000), 2000)   # watermark 1000 drops ts 0..990 at once
    assert len(log) == 2
    # an entry stamped exactly at the watermark stays
    assert [m.timestamp for m in log.applied] == [1000, 2000]
    # the stream keys of pruned entries are forgotten, kept ones are not
    assert isinstance(log.on_deliver(ev(1500, seq=0), 2001), RollbackDirective)
    assert isinstance(log.on_deliver(ev(2000), 2002), DropDuplicate)


def test_commit_after_a_callback_delivered_into_the_log():
    """A game callback can deliver into the log while a directive is being
    applied, here a second late message that is committed first and lands
    before the first one. The first commit still finds its place."""
    log = DeliveryLog()
    for ts in (100, 130, 140):
        log.on_deliver(ev(ts), ts)
    first = log.on_deliver(ev(120), 141)
    assert [m.timestamp for m in first.undo] == [140, 130]

    class Reentrant:
        def undo_event(self, msg):
            pass

        def apply_event(self, msg):
            if msg is first.late:
                second = log.on_deliver(ev(110), 142)
                assert isinstance(second, RollbackDirective)
                log.commit(second)

    apply_directive(Reentrant(), first)
    log.commit(first)
    assert [m.timestamp for m in log.applied] == [100, 110, 120, 130, 140]
    assert log._keys == [order_key(m) for m in log.applied]
    assert isinstance(log.on_deliver(ev(110), 143), DropDuplicate)
    assert isinstance(log.on_deliver(ev(120), 143), DropDuplicate)


def test_callback_failure_leaves_log_unchanged():
    log = DeliveryLog()
    game = SpyGame(fail_on=120)
    for ts in (100, 130, 140):
        deliver(log, game, ev(ts))
    outcome = log.on_deliver(ev(120), 141)
    assert isinstance(outcome, RollbackDirective)
    with pytest.raises(CallbackFailure):
        apply_directive(game, outcome)
    # not committed: the log still holds the original three
    assert [m.timestamp for m in log.applied] == [100, 130, 140]
