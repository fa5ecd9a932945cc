"""Playout buffering, per-class lag values, and release ordering."""

import random

import pytest

from gamesync.locallag import LagPolicy, NegativeLag, PlayoutBuffer
from gamesync.pdu import StateUpdate
from gamesync.regions import ConsistencyMode

NORMAL = ConsistencyMode.NORMAL
STRONG = ConsistencyMode.STRONG


def msg(ts, seq=1, sender=0, entity=0):
    return StateUpdate(sender, entity, seq, ts, (0.0, 0.0), (0.0, 0.0), False)


def test_class_lag_500():
    # 500 ms is one of the two experiment settings
    policy = LagPolicy(base_lag_ms={"car": 500})
    buf = PlayoutBuffer(policy)
    entry = buf.enqueue(msg(100), "car", NORMAL, 100)
    assert entry.due == 600 and not entry.late


def test_playout_entries_are_immutable():
    entry = PlayoutBuffer(LagPolicy()).enqueue(msg(100), "car", NORMAL, 100)
    with pytest.raises(AttributeError):
        entry.late = True


def test_zero_lag_is_passthrough():
    policy = LagPolicy(base_lag_ms={"car": 0})
    buf = PlayoutBuffer(policy)
    entry = buf.enqueue(msg(100), "car", NORMAL, 100)
    assert entry.due == 100


def test_lag_1000_due_arithmetic():
    # the second experiment setting
    policy = LagPolicy(base_lag_ms={"car": 1000})
    buf = PlayoutBuffer(policy)
    assert buf.enqueue(msg(2000), "car", NORMAL, 2000).due == 3000


def test_negative_lag_rejected():
    with pytest.raises(NegativeLag):
        LagPolicy(base_lag_ms={"car": -5})


def test_enqueue_on_time():
    policy = LagPolicy(base_lag_ms={"car": 500})
    buf = PlayoutBuffer(policy)
    entry = buf.enqueue(msg(100), "car", NORMAL, 350)
    assert entry.due == 600 and not entry.late
    assert len(buf) == 1


def test_enqueue_late_bypasses_buffer():
    policy = LagPolicy(base_lag_ms={"car": 500})
    buf = PlayoutBuffer(policy)
    entry = buf.enqueue(msg(100), "car", NORMAL, 700)
    assert entry.due == 600 and entry.late
    assert len(buf) == 0


def test_enqueue_strong_mode_halves_lag():
    policy = LagPolicy(base_lag_ms={"car": 500}, critical_scale=0.5)
    buf = PlayoutBuffer(policy)
    entry = buf.enqueue(msg(100), "car", STRONG, 300)
    assert entry.due == 350 and not entry.late


def test_strong_vs_normal_pipeline_stepping():
    """Step both modes through the same deliveries: strong playout is
    earlier by exactly the scaled-down lag."""
    policy = LagPolicy(base_lag_ms={"car": 400}, critical_scale=0.5)
    for mode, lag in ((NORMAL, 400), (STRONG, 200)):
        buf = PlayoutBuffer(policy)
        buf.enqueue(msg(1000), "car", mode, 1050)
        released_at = None
        for now in range(1050, 2000):
            if buf.release_due(now):
                released_at = now
                break
        assert released_at == 1000 + lag


def test_release_empty():
    buf = PlayoutBuffer(LagPolicy())
    assert buf.release_due(10**9) == []


def test_release_order_due_550_600():
    policy = LagPolicy(base_lag_ms={"c": 500})
    buf = PlayoutBuffer(policy)
    buf.enqueue(msg(100, seq=1), "c", NORMAL, 100)   # due 600
    buf.enqueue(msg(50, seq=2), "c", NORMAL, 100)    # due 550
    released = buf.release_due(600)
    assert [e.due for e in released] == [550, 600]


def test_release_full_sort_oracle_100_seeded_entries():
    """Stepping now by 1 ms must concatenate to the fully sorted order."""
    rng = random.Random(99)
    policy = LagPolicy(base_lag_ms={"c": 0})
    buf = PlayoutBuffer(policy)
    entries = []
    for i in range(100):
        ts = rng.randrange(0, 500)
        m = StateUpdate(rng.randrange(3), 0, i, ts, (0.0, 0.0), (0.0, 0.0), False)
        lag = rng.randrange(0, 300)
        policy.base_lag_ms["c"] = lag
        entries.append(buf.enqueue(m, "c", NORMAL, 0))
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
                                            e.msg.sender_id, e.msg.seq))
    assert released == oracle


def test_no_late_when_lag_covers_max_delay():
    """L >= d_max and no loss: nothing is ever tagged late."""
    rng = random.Random(4)
    policy = LagPolicy(base_lag_ms={"c": 300})
    buf = PlayoutBuffer(policy)
    for seq in range(200):
        ts = seq * 10
        arrival = ts + rng.randrange(0, 301)   # one-way delay <= L
        assert not buf.enqueue(msg(ts, seq=seq), "c", NORMAL, arrival).late


def test_release_order_equals_timestamp_order_without_lates():
    rng = random.Random(5)
    policy = LagPolicy(base_lag_ms={"c": 250})
    buf = PlayoutBuffer(policy)
    for seq in range(100):
        ts = seq * 7
        buf.enqueue(msg(ts, seq=seq), "c", NORMAL, ts + rng.randrange(0, 251))
    released = buf.release_due(10**6)
    timestamps = [e.msg.timestamp for e in released]
    assert timestamps == sorted(timestamps)


def test_lag_change_preserves_buffered_due_times():
    policy = LagPolicy(base_lag_ms={"c": 500})
    buf = PlayoutBuffer(policy)
    entry = buf.enqueue(msg(100), "c", NORMAL, 100)
    policy.base_lag_ms["c"] = 0
    new_entry = buf.enqueue(msg(200, seq=2), "c", NORMAL, 200)
    assert entry.due == 600          # unchanged
    assert new_entry.due == 200      # new lag applies to new enqueues
    released = buf.release_due(600)
    assert [e.due for e in released] == [200, 600]


def test_entries_released_exactly_once():
    policy = LagPolicy(base_lag_ms={"c": 100})
    buf = PlayoutBuffer(policy)
    for seq in range(10):
        buf.enqueue(msg(seq * 10, seq=seq), "c", NORMAL, seq * 10)
    seen = []
    for now in range(0, 300, 7):
        seen.extend(buf.release_due(now))
    assert len(seen) == 10
    assert len({e.msg.seq for e in seen}) == 10
