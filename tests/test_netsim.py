"""Discrete-event simulator: scheduling, jitter, loss, and determinism."""

import io

import pytest

from gamesync import netsim
from gamesync.netsim import (EmptyQueue, LinkUnavailable, NetworkSim, SimRng,
                             UnknownLink)
from gamesync.overlay import LinkSpec
from gamesync.pdu import PingMessage, encode

U64 = (1 << 64) - 1


def reference_xorshift(state):
    """Independent implementation of the documented generator, written
    directly from the constants (shifts 12/25/27, multiplier
    0x2545F4914F6CDD1D)."""
    x = state
    x ^= x >> 12
    x = (x ^ (x << 25)) & U64
    x ^= x >> 27
    return x, (x * 0x2545F4914F6CDD1D) & U64


def make_sim(seed=42, base=100, jitter=0, loss=0.0, trace=None):
    sim = NetworkSim(seed, trace=trace)
    sim.add_link(LinkSpec(0, (0, 1), base, jitter_ms=jitter, loss_prob=loss))
    return sim


def payload():
    return encode(PingMessage(0, 1, 0))


def test_rng_matches_independent_reference():
    rng = SimRng(42)
    state = 42
    for _ in range(1000):
        state, expected = reference_xorshift(state)
        assert rng.next_u64() == expected


def test_rng_zero_seed_is_remapped():
    a = SimRng(0)
    b = SimRng(0)
    assert a.next_u64() == b.next_u64() != 0


def test_fixed_delay_no_randomness():
    sim = make_sim(base=100, jitter=0)
    sim.schedule_call(1000, lambda now: sim.send(0, 0, payload()))
    sim.step()
    event = sim.step()
    assert event.deliver_at == 1100
    assert sim.now == 1100


def test_loss_prob_one_always_drops():
    sim = make_sim(loss=1.0)
    for _ in range(50):
        assert sim.send(0, 0, payload()) is False
    assert sim.counters.dropped == 50
    assert sim.pending_deliveries == 0


def test_jitter_golden_value_seed_42():
    """deliver_at computed beforehand with the reference generator:
    draw1 (loss float) = 0.33908..., draw2 % 101 - 50 = +29 -> 1129."""
    state, o1 = reference_xorshift(42)
    assert (o1 >> 11) * 2.0 ** -53 == pytest.approx(0.33908526400192196)
    state, o2 = reference_xorshift(state)
    assert (o2 % 101) - 50 == 29

    sim = make_sim(seed=42, base=100, jitter=50)
    sim.schedule_call(1000, lambda now: sim.send(0, 0, payload()))
    sim.step()
    assert sim.step().deliver_at == 1129


def test_same_time_events_deliver_in_insertion_order():
    sim = NetworkSim(1)
    order = []
    sim.schedule_call(100, lambda now: order.append("a"))
    sim.schedule_call(100, lambda now: order.append("b"))
    sim.step()
    sim.step()
    assert order == ["a", "b"]


def test_call_runs_before_delivery_due_at_same_time():
    """A call scheduled after a delivery due at the same time was sent
    still runs first: the order at one time is calls, then deliveries."""
    sim = make_sim(base=100)
    order = []
    sim.register_handler(1, lambda data, now, link: order.append(("deliver", now)))
    assert sim.send(0, 0, payload())
    sim.schedule_call(100, lambda now: order.append(("call", now)))
    sim.run_until(100)
    assert order == [("call", 100), ("deliver", 100)]
    assert sim.pending == 0


def test_global_order_is_schedule_sort_oracle():
    sim = make_sim(seed=9, base=10, jitter=5)
    sim.add_link(LinkSpec(1, (0, 1), 20, jitter_ms=10))
    deliveries = []
    sim.register_handler(1, lambda data, now, link: deliveries.append((now, link)))

    def send_all(now):
        for i in range(20):
            link = i % 2
            sim.send(link, 0, payload())
    sim.schedule_call(0, send_all)
    while sim.pending:
        sim.step()
    assert deliveries == sorted(deliveries, key=lambda d: d[0])
    assert len(deliveries) + sim.counters.dropped == 20


def _arrivals(sim, *calls):
    """Schedule (at, fn) calls, run the simulator dry, and return the
    arrival times at client 1 in delivery order."""
    arrivals = []
    sim.register_handler(1, lambda data, now, link: arrivals.append(now))
    for at, fn in calls:
        sim.schedule_call(at, fn)
    while sim.pending:
        sim.step()
    return arrivals


def test_set_link_delay_boundary():
    """A change made by a call at 5000 applies to a send in the same ms
    (scheduled after it), not to one a ms earlier."""
    sim = make_sim(base=100)
    arrivals = _arrivals(
        sim,
        (4999, lambda now: sim.send(0, 0, payload())),
        (5000, lambda now: sim.set_link_delay(0, 300)),
        (5000, lambda now: sim.send(0, 0, payload())))
    assert arrivals == [4999 + 100, 5000 + 300]


def test_set_link_delay_idempotent():
    sim = make_sim(base=100)

    def change(now):
        sim.set_link_delay(0, 300)
    arrivals = _arrivals(
        sim,
        (4000, lambda now: sim.send(0, 0, payload())),
        (5000, change), (5000, change),
        (6000, lambda now: sim.send(0, 0, payload())))
    assert arrivals == [4000 + 100, 6000 + 300]
    assert sim.links[0].base_delay_ms == 300


def test_set_link_delay_is_held_to_the_links_bound():
    """A negative delay raises LinkSpec's own error and changes nothing:
    the next send still takes the old delay."""
    sim = make_sim(base=100)
    with pytest.raises(ValueError, match="^base_delay_ms must be >= 0"):
        sim.set_link_delay(0, -50)
    assert sim.links[0].base_delay_ms == 100
    sim.set_link_delay(0, 0)
    assert sim.links[0].base_delay_ms == 0


def test_delay_change_ties_and_send_time_boundary():
    """Of two changes at one time the one called last holds, and a send in
    the ms of a change sees it."""
    sim = make_sim(base=100)

    def send(now):
        sim.send(0, 0, payload())
    arrivals = _arrivals(
        sim,
        (2999, send),
        (3000, lambda now: sim.set_link_delay(0, 150)),
        (3000, send), (4999, send),
        (5000, lambda now: sim.set_link_delay(0, 300)),
        (5000, lambda now: sim.set_link_delay(0, 200)),
        (5000, send), (10**6, send))
    assert arrivals == [2999 + 100, 3000 + 150, 4999 + 150, 5000 + 200,
                        10**6 + 200]


def test_minimum_one_ms_delivery():
    sim = make_sim(base=0, jitter=0)
    sim.schedule_call(10, lambda now: sim.send(0, 0, payload()))
    sim.step()
    assert sim.step().deliver_at == 11


def test_unknown_link_and_unavailable():
    sim = make_sim()
    with pytest.raises(UnknownLink):
        sim.send(99, 0, payload())
    sim.links[0].available = False
    with pytest.raises(LinkUnavailable):
        sim.send(0, 0, payload())
    with pytest.raises(UnknownLink):
        sim.set_link_delay(99, 10)


def test_empty_queue():
    with pytest.raises(EmptyQueue):
        NetworkSim(1).step()


def _run_traced(seed):
    trace = io.StringIO()
    sim = make_sim(seed=seed, base=50, jitter=25, loss=0.2, trace=trace)
    sim.register_handler(1, lambda data, now, link: None)

    def burst(now):
        for _ in range(30):
            sim.send(0, 0, payload())
    sim.schedule_call(0, burst)
    sim.schedule_call(40, burst)
    while sim.pending:
        sim.step()
    return trace.getvalue(), sim.counters


def test_determinism_identical_traces():
    trace_a, counters_a = _run_traced(7)
    trace_b, counters_b = _run_traced(7)
    assert trace_a == trace_b
    assert counters_a == counters_b
    trace_c, _ = _run_traced(8)
    assert trace_c != trace_a


def test_conservation_accounting():
    _, counters = _run_traced(7)
    assert counters.sent == counters.delivered + counters.dropped
    assert counters.sent == 60


def test_clock_monotone_across_run():
    sim = make_sim(seed=3, base=30, jitter=29)
    sim.register_handler(1, lambda data, now, link: None)
    times = []
    sim.schedule_call(0, lambda now: [sim.send(0, 0, payload())
                                      for _ in range(50)])
    while sim.pending:
        times.append(sim.step().deliver_at)
    assert times == sorted(times)


def test_trace_line_format():
    trace = io.StringIO()
    sim = make_sim(seed=1, base=100, trace=trace)
    sim.register_handler(1, lambda data, now, link: None)
    sim.schedule_call(5, lambda now: sim.send(0, 0, payload()))
    while sim.pending:
        sim.step()
    lines = trace.getvalue().splitlines()
    assert lines[0] == "5\tSEND\t0\t0\t1\tPING\t1"
    assert lines[1] == "105\tDELIVER\t0\t0\t1\tPING\t1"


def test_trace_writes_drop_and_unparseable_lines():
    trace = io.StringIO()
    sim = make_sim(seed=1, base=100, loss=1.0, trace=trace)
    sim.schedule_call(5, lambda now: [sim.send(0, 0, payload()),
                                      sim.send(0, 1, b"not a frame")])
    while sim.pending:
        sim.step()
    assert trace.getvalue().splitlines() == [
        "5\tSEND\t0\t0\t1\tPING\t1",
        "5\tDROP\t0\t0\t1\tPING\t1",
        "5\tSEND\t0\t1\t0\t?\t0",
        "5\tDROP\t0\t1\t0\t?\t0",
    ]


def test_untraced_send_does_not_peek(monkeypatch):
    def no_peek(data):
        raise AssertionError("peek without a trace")
    monkeypatch.setattr(netsim, "peek", no_peek)
    sim = make_sim(seed=1, base=100)
    arrivals = []
    sim.register_handler(1, lambda data, now, link: arrivals.append(data))
    sim.schedule_call(5, lambda now: sim.send(0, 0, b"not a frame"))
    while sim.pending:
        sim.step()
    assert arrivals == [b"not a frame"]


def test_trace_lines_follow_each_frames_own_link_and_payload():
    """Trace-line parts are memoised per (link, sender) and on the last
    payload sent; every SEND, DROP and DELIVER line still equals one built
    from its own frame, across a fan-out, a new payload, a return to an
    earlier one, an unparseable frame and the reverse direction."""
    trace = io.StringIO()
    sim = NetworkSim(5, trace=trace)
    links = [LinkSpec(0, (0, 1), 40, jitter_ms=10, loss_prob=0.4),
             LinkSpec(1, (0, 2), 60, jitter_ms=10, loss_prob=0.4)]
    for link in links:
        sim.add_link(link)
    a = encode(PingMessage(0, 11, 0))
    b = encode(PingMessage(0, 12, 0))
    sends = [(0, 0, a), (1, 0, a), (0, 0, b), (1, 0, a),
             (0, 0, b"not a frame"), (0, 1, a)]
    frames = {"SEND": [], "DROP": [], "DELIVER": []}

    def handler(dest):
        def deliver(data, now, link_id):
            sender = links[link_id].other_endpoint(dest)
            frames["DELIVER"].append((now, link_id, sender, dest, data))
        return deliver
    for cid in (0, 1, 2):
        sim.register_handler(cid, handler(cid))

    def burst(now):
        for link_id, sender, data in sends:
            dest = links[link_id].other_endpoint(sender)
            frame = (now, link_id, sender, dest, data)
            frames["SEND"].append(frame)
            if not sim.send(link_id, sender, data):
                frames["DROP"].append(frame)
    for at in range(0, 200, 10):
        sim.schedule_call(at, burst)
    while sim.pending:
        sim.step()

    reference = {kind: iter(sent) for kind, sent in frames.items()}
    lines = trace.getvalue().splitlines(keepends=True)
    for line in lines:
        kind = line.split("\t")[1]
        now, link_id, sender, dest, data = next(reference[kind])
        mtype, _, seq = netsim.peek(data)
        assert line == (f"{now}\t{kind}\t{link_id}\t{sender}\t{dest}"
                        f"\t{mtype}\t{seq}\n")
    assert len(lines) == sum(map(len, frames.values()))
    assert len(frames["DROP"]) > 0 and len(frames["DELIVER"]) > 0


def test_delay_change_on_a_link_that_has_carried_sends():
    """A link that has carried sends uses a new delay from the next send
    on, within the same call too; frames in flight keep theirs."""
    sim = make_sim(base=100)

    def send_change_send(now):
        sim.send(0, 0, payload())
        sim.set_link_delay(0, 30)
        sim.send(0, 0, payload())
    arrivals = _arrivals(
        sim,
        (10, lambda now: sim.send(0, 0, payload())),
        (20, send_change_send),
        (40, lambda now: sim.send(0, 0, payload())))
    assert arrivals == [20 + 30, 40 + 30, 10 + 100, 20 + 100]
