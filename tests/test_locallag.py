"""Playout buffering: due times from the lag handed over, the late
bypass, and release ordering. The lag of a class and its strong-mode
scaling are the player manager's (see test_player.py)."""

import random

import pytest

from conftest import minimal_doc
from gamesync.locallag import PlayoutBuffer
from gamesync.pdu import StateUpdate
from gamesync.player import ClassPolicy
from gamesync.scenario import ValidationError, parse_scenario


def msg(ts, seq=1, sender=0, entity=0):
    return StateUpdate(sender, entity, seq, ts, (0.0, 0.0), (0.0, 0.0), False)


def test_class_lag_500():
    # 500 ms is one of the two experiment settings
    buf = PlayoutBuffer()
    entry = buf.enqueue(msg(100), 500, 100)
    assert entry.due == 600 and not entry.late


def test_playout_entries_are_immutable():
    entry = PlayoutBuffer().enqueue(msg(100), 0, 100)
    with pytest.raises(AttributeError):
        entry.late = True


def test_zero_lag_is_passthrough():
    buf = PlayoutBuffer()
    entry = buf.enqueue(msg(100), 0, 100)
    assert entry.due == 100


def test_lag_1000_due_arithmetic():
    # the second experiment setting
    buf = PlayoutBuffer()
    assert buf.enqueue(msg(2000), 1000, 2000).due == 3000


def test_negative_lag_rejected():
    with pytest.raises(ValueError):
        ClassPolicy(lag_ms=-5)
    for policies in ({"default": {"lag_ms": -5}},
                     {"classes": {"car": {"lag_ms": -5}}}):
        doc = minimal_doc()
        doc["policies"] = policies
        with pytest.raises(ValidationError, match="lag_ms"):
            parse_scenario(doc)


def test_enqueue_on_time():
    buf = PlayoutBuffer()
    entry = buf.enqueue(msg(100), 500, 350)
    assert entry.due == 600 and not entry.late
    assert len(buf) == 1


def test_enqueue_late_bypasses_buffer():
    buf = PlayoutBuffer()
    entry = buf.enqueue(msg(100), 500, 700)
    assert entry.due == 600 and entry.late
    assert len(buf) == 0


def test_release_empty():
    buf = PlayoutBuffer()
    assert buf.release_due(10**9) == []


def test_release_order_due_550_600():
    buf = PlayoutBuffer()
    buf.enqueue(msg(100, seq=1), 500, 100)   # due 600
    buf.enqueue(msg(50, seq=2), 500, 100)    # due 550
    released = buf.release_due(600)
    assert [e.due for e in released] == [550, 600]


def test_release_full_sort_oracle_100_seeded_entries():
    """Stepping now by 1 ms must concatenate to the fully sorted order."""
    rng = random.Random(99)
    buf = PlayoutBuffer()
    entries = []
    for i in range(100):
        ts = rng.randrange(0, 500)
        m = StateUpdate(rng.randrange(3), 0, i, ts, (0.0, 0.0), (0.0, 0.0), False)
        lag = rng.randrange(0, 300)
        entries.append(buf.enqueue(m, lag, 0))
    assert len(buf) == 100

    released = []
    for now in range(0, 900):
        batch = buf.release_due(now)
        for e in batch:
            assert e.due <= now
        released.extend(batch)
        assert buf.release_due(now) == []   # same now: nothing new
    assert len(released) == 100

    oracle = sorted(entries, key=lambda e: (e.due, e.msg.timestamp,
                                            e.msg.sender_id, e.msg.entity_id,
                                            e.msg.seq))
    assert released == oracle


def test_twins_released_by_entity_whatever_the_enqueue_order():
    """Messages of one sender's entities that share due time, timestamp and
    seq are released in entity order, as the rollback log orders them."""
    twins = [msg(100, seq=1, entity=e) for e in (0, 1, 2)]
    for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
        buf = PlayoutBuffer()
        for i in order:
            buf.enqueue(twins[i], 50, 100)
        assert [e.msg for e in buf.release_due(150)] == twins


def test_no_late_when_lag_covers_max_delay():
    """L >= d_max and no loss: nothing is ever tagged late."""
    rng = random.Random(4)
    buf = PlayoutBuffer()
    for seq in range(200):
        ts = seq * 10
        arrival = ts + rng.randrange(0, 301)   # one-way delay <= L
        assert not buf.enqueue(msg(ts, seq=seq), 300, arrival).late


def test_release_order_equals_timestamp_order_without_lates():
    rng = random.Random(5)
    buf = PlayoutBuffer()
    for seq in range(100):
        ts = seq * 7
        buf.enqueue(msg(ts, seq=seq), 250, ts + rng.randrange(0, 251))
    released = buf.release_due(10**6)
    timestamps = [e.msg.timestamp for e in released]
    assert timestamps == sorted(timestamps)


def test_lag_change_preserves_buffered_due_times():
    buf = PlayoutBuffer()
    entry = buf.enqueue(msg(100), 500, 100)
    new_entry = buf.enqueue(msg(200, seq=2), 0, 200)
    assert entry.due == 600          # unchanged
    assert new_entry.due == 200      # new lag applies to new enqueues
    released = buf.release_due(600)
    assert [e.due for e in released] == [200, 600]


def test_entries_released_exactly_once():
    buf = PlayoutBuffer()
    for seq in range(10):
        buf.enqueue(msg(seq * 10, seq=seq), 100, seq * 10)
    seen = []
    for now in range(0, 300, 7):
        seen.extend(buf.release_due(now))
    assert len(seen) == 10
    assert len({e.msg.seq for e in seen}) == 10
