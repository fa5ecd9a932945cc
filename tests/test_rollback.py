"""Temporal ordering: rollback directive construction and application."""

import bisect
import itertools
import random
from dataclasses import dataclass, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamesync.pdu import EventKind, EventMessage
from gamesync.rollback import (Apply, CallbackFailure, DeliveryLog,
                               DropBeyondWindow, DropDuplicate,
                               RollbackDirective, apply_directive, order_key)


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
        self.fail_at_call = None    # fail the n-th callback, counted from 0

    def _fail_at_call(self):
        if len(self.trace) == self.fail_at_call:
            raise RuntimeError("boom")

    def apply_event(self, msg):
        self._fail_at_call()
        if self.fail_on is not None and msg.timestamp == self.fail_on:
            raise RuntimeError("boom")
        self.trace.append(("apply", msg.timestamp))
        self.sequence.append(msg)

    def undo_event(self, msg):
        self._fail_at_call()
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
    game.trace.clear()
    apply_directive(game, outcome)
    replay = [ts for call, ts in game.trace if call == "apply"]
    assert replay == [120, 130, 140]
    # oracle: sorting the four timestamps fixes the replay suffix
    assert replay == sorted([120, 130, 140])


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
    directive = RollbackDirective(late=late, undo=(), key=order_key(late))
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
    with pytest.raises(CallbackFailure) as failure:
        apply_directive(game, outcome)
    # the two undos returned, then the late event's apply raised
    assert failure.value.undone == outcome.undo
    assert not failure.value.late_applied
    # not committed: the log still holds the original three
    assert [m.timestamp for m in log.applied] == [100, 130, 140]


@pytest.mark.parametrize("fail_at", range(5))
def test_callback_failure_names_what_the_game_no_longer_holds(fail_at):
    """Whichever callback of a directive raises, the failure's undone and
    late_applied are what the game's own sequence shows."""
    log = DeliveryLog()
    game = SpyGame()
    for ts in (100, 130, 140):
        deliver(log, game, ev(ts))
    outcome = log.on_deliver(ev(120), 141)
    game.fail_at_call = len(game.trace) + fail_at
    with pytest.raises(CallbackFailure) as failure:
        apply_directive(game, outcome)
    held = [id(m) for m in game.sequence]
    assert failure.value.undone == tuple(
        m for m in reversed(log.applied) if id(m) not in held)
    assert failure.value.late_applied == (id(outcome.late) in held)


def test_withdraw_takes_back_only_the_applied_message():
    """Twin events of one sender's two entities share timestamp and seq but
    not their key; withdraw removes only the message it is given, whose
    resend is then delivered again, and does nothing for a message the log
    does not hold."""
    log = DeliveryLog()
    first, second = ev(100, seq=1, entity=0), ev(100, seq=1, entity=1)
    later = ev(130, seq=2)
    for msg in (first, second, later):
        assert isinstance(log.on_deliver(msg, 130), Apply)
    log.withdraw(second)
    assert log.applied == [first, later]
    assert log._keys == [order_key(first), order_key(later)]
    log.withdraw(second)
    assert log.applied == [first, later]
    assert isinstance(log.on_deliver(first, 131), DropDuplicate)
    assert isinstance(log.on_deliver(second, 131), RollbackDirective)


def test_twins_apply_by_entity_in_either_arrival_order():
    """Events of one sender's two entities with one timestamp and seq are
    two events, ordered by entity whichever arrives first."""
    twins = [ev(100, seq=1, entity=0), ev(100, seq=1, entity=1)]
    for arrival in (twins, twins[::-1]):
        log = DeliveryLog()
        game = SpyGame()
        for msg in arrival:
            deliver(log, game, msg, now=101)
        assert log.applied == twins
        assert game.sequence == twins


def test_reused_stream_with_another_timestamp_is_a_new_event():
    """A sender that restarts its session numbers its seqs from 1 again:
    the same (sender, entity, seq) at another timestamp is a new event,
    while a resend of either is a duplicate."""
    log = DeliveryLog()
    first, reused = ev(100, seq=1), ev(900, seq=1)
    assert isinstance(log.on_deliver(first, 100), Apply)
    assert isinstance(log.on_deliver(reused, 900), Apply)
    assert isinstance(log.on_deliver(ev(100, seq=1), 901), DropDuplicate)
    assert isinstance(log.on_deliver(ev(900, seq=1), 901), DropDuplicate)
    assert log.applied == [first, reused]


def test_inline_key_follows_order_key():
    """on_deliver builds the key from one header unpack; it is the one
    order_key defines. Every field differs, so a permuted or shortened key
    shows."""
    log = DeliveryLog()
    first = ev(130, seq=5, sender=2, entity=1)
    late = ev(120, seq=6, sender=4, entity=3)
    assert isinstance(log.on_deliver(first, 130), Apply)
    assert log._keys == [order_key(first)]
    directive = log.on_deliver(late, 131)
    assert directive.key == order_key(late)
    log.commit(directive)
    assert log._keys == [order_key(late), order_key(first)]
    log.prune(131 + log.history_window_ms)
    assert len(log) == 0 and log._keys == []


# -- outcome records ---------------------------------------------------------

def test_outcome_records_equal_only_their_own_type():
    msg = ev(100)
    records = [Apply(msg), DropDuplicate(msg), DropBeyondWindow(msg)]
    for a, b in itertools.permutations(records, 2):
        assert a != b and not a == b
    # nor a plain tuple of the same fields, from either side
    for record in records:
        assert record != (msg,) and (msg,) != record
        assert not record == (msg,) and not (msg,) == record
    directive = RollbackDirective(msg, (), order_key(msg))
    assert directive != tuple(directive) and tuple(directive) != directive


def test_outcome_records_of_one_type_equal_and_hash_by_fields():
    a, b = ev(100), ev(100)
    assert a is not b
    assert Apply(a) == Apply(b) and not Apply(a) != Apply(b)
    assert hash(Apply(a)) == hash(Apply(b)) == hash((a,))
    assert len({DropDuplicate(a), DropDuplicate(b)}) == 1
    assert Apply(ev(100)) != Apply(ev(101))
    first = RollbackDirective(late=a, undo=(), key=order_key(a))
    second = RollbackDirective(b, (), order_key(b))
    assert first == second and hash(first) == hash(second)
    assert first != second._replace(undo=(a,))


def test_outcome_records_are_read_only_and_keyword_built():
    msg = ev(100)
    directive = RollbackDirective(late=msg, undo=(ev(110),),
                                  key=order_key(msg))
    assert (directive.late, directive.undo, directive.key) == \
        (msg, (ev(110),), order_key(msg))
    for record, name in ((Apply(msg=msg), "msg"),
                         (DropDuplicate(msg=msg), "msg"),
                         (DropBeyondWindow(msg=msg), "msg"),
                         (directive, "undo")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


# -- oracle: the delivery log as it was written with frozen dataclass records,
# a set of seen keys beside the sorted list, and prune called on every
# delivery. It differs from that log in two ways only: its key gains
# entity_id, and a duplicate is a delivery whose key was seen (so the
# directive's separate stream key is gone). The flat log must classify
# every delivery as it does.

def ref_key(msg):
    return (msg.timestamp, msg.sender_id, msg.entity_id, msg.seq)


@dataclass(frozen=True)
class RefApply:
    msg: object


@dataclass(frozen=True)
class RefDropDuplicate:
    msg: object


@dataclass(frozen=True)
class RefDropBeyondWindow:
    msg: object


@dataclass(frozen=True)
class RefRollbackDirective:
    late: object
    undo: tuple            # newest first
    replay: tuple          # oldest first: late message then the undone ones
    key: tuple             # ref_key(late)


class ReferenceLog:
    def __init__(self, history_window_ms):
        self.history_window_ms = history_window_ms
        self._applied: list = []      # sorted by ref_key
        self._keys: list = []
        self._seen: set = set()       # keys within the window
        self._watermark: int = 0

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
            self._seen.discard(ref_key(dropped))
        del self._applied[:cut]
        del self._keys[:cut]


def reference_on_deliver(self, msg, now: int):
    self.prune(now)
    if msg.timestamp < self._watermark:
        return RefDropBeyondWindow(msg)
    key = ref_key(msg)
    if key in self._seen:
        return RefDropDuplicate(msg)
    if not self._applied or key >= self._keys[-1]:
        self._applied.append(msg)
        self._keys.append(key)
        self._seen.add(key)
        return RefApply(msg)
    idx = bisect.bisect_left(self._keys, key)
    newer = tuple(self._applied[idx:])
    return RefRollbackDirective(late=msg,
                                undo=tuple(reversed(newer)),
                                replay=(msg,) + newer,
                                key=key)


def reference_commit(self, directive) -> None:
    key = directive.key
    idx = bisect.bisect_left(self._keys, key)
    self._applied.insert(idx, directive.late)
    self._keys.insert(idx, key)
    self._seen.add(key)


@st.composite
def delivery_streams(draw):
    """A history window and a stream of (message, now) deliveries: messages
    from 3 senders and 2 entities, drawn from a small pool so that
    (sender, entity, seq) repeats, also at another timestamp, on few
    timestamps so that senders tie, arriving with jitter (some behind the
    clock) and a clock that never goes back. A window this small lets old
    messages fall beyond it."""
    window = draw(st.integers(1, 30))
    pool = draw(st.lists(st.builds(ev, ts=st.integers(0, 15),
                                   seq=st.integers(0, 2),
                                   sender=st.integers(0, 2),
                                   entity=st.integers(0, 1)),
                         min_size=1, max_size=12))
    # twins: the same timestamp and seq from another sender (a cross-sender
    # tie), or from the sender's other entity
    for i, other_sender in draw(st.lists(st.tuples(
            st.integers(0, len(pool) - 1), st.booleans()), max_size=4)):
        sender, entity, seq, ts = pool[i][:4]
        if other_sender:
            pool.append(ev(ts, seq=seq, sender=(sender + 1) % 3, entity=entity))
        else:
            pool.append(ev(ts, seq=seq, sender=sender, entity=1 - entity))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(-3, 12)),
                          min_size=1, max_size=40))
    now, steps = 0, []
    for i, jitter in picks:
        msg = pool[i]
        now = max(now, msg.timestamp + jitter)
        steps.append((msg, now))
    return window, steps


@given(delivery_streams())
def test_delivery_log_classifies_like_the_reference(stream):
    window, steps = stream
    log, ref = DeliveryLog(window), ReferenceLog(window)
    for msg, now in steps:
        outcome = log.on_deliver(msg, now)
        expected = reference_on_deliver(ref, msg, now)
        assert "Ref" + type(outcome).__name__ == type(expected).__name__
        assert outcome._fields == tuple(f.name for f in fields(expected)
                                        if f.name != "replay")
        assert tuple(outcome) == tuple(getattr(expected, name)
                                       for name in outcome._fields)
        if isinstance(outcome, RollbackDirective):
            # apply_directive re-applies the undone events oldest first
            assert expected.replay == (outcome.late, *reversed(outcome.undo))
            log.commit(outcome)
            reference_commit(ref, expected)
        assert log.applied == ref._applied
