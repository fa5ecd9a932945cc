"""End-to-end scenario runs: closed-form expectations, determinism, and
summary consistency with the emitted files."""

import gc
import math
import tempfile
import tracemalloc
from collections.abc import Sized
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_rows, run_observing_estimates, two_client_doc
from gamesync import player, runner
from gamesync.metrics import TICK_HEADER, TICK_ROW
from gamesync.netsim import InvariantViolation, NetworkSim
from gamesync.pdu import EventKind, EventMessage
from gamesync.player import PlayerManager
from gamesync.rollback import DEFAULT_HISTORY_WINDOW_MS
from gamesync.runner import run
from gamesync.scenario import parse_scenario
from test_golden import small_mesh_doc


def run_doc(doc, **kwargs):
    return run(parse_scenario(doc), **kwargs)


def test_fire_event_display_diff_zero_closed_form(tmp_path):
    """L >= d with sender-side lag: both sides play out at timestamp + L,
    so every display-time difference is exactly zero.

    Hand trace of one event: fired at t=1000 (timestamp 1000), L=500 ->
    local playout due 1500; arrival at 1250, same due 1500; both release on
    the 1500 tick."""
    doc = two_client_doc()
    doc["policies"]["default"]["lag_ms"] = 500
    doc["clients"][0]["entities"][0]["events"] = [
        {"kind": "fire", "first": 1000, "every": 500, "count": 6}]
    events_csv = tmp_path / "events.csv"
    res = run_doc(doc, events_out=events_csv)
    rows = read_rows(events_csv)
    assert res.summary["event_rows"] == len(rows) == 6
    assert [r for r in rows if r[5] != 0] == []
    assert res.summary["mean_abs_display_diff_ms"] == 0.0
    first = rows[0]
    assert (first[3], first[4]) == (1500, 1500)


def test_divergence_summary_is_the_same_without_a_tick_file(tmp_path):
    """Sampling writes a tick's rows in one batch, each as TICK_ROW renders
    its values; without a tick file it formats nothing, and still sums the
    same divergences in the same order."""
    tick_csv = tmp_path / "tick.csv"
    written = run_doc(small_mesh_doc(), out=tick_csv)
    rows = read_rows(tick_csv)
    assert len(rows) == written.summary["divergence_rows"] > 0
    assert tick_csv.read_bytes() == (TICK_HEADER + "\n" + "".join(
        TICK_ROW % row for row in rows)).encode()
    unwritten = run_doc(small_mesh_doc())
    for key in ("divergence_rows", "mean_divergence_m", "max_divergence_m"):
        assert unwritten.summary[key] == written.summary[key], key


def test_simulator_heap_does_not_grow_with_run_length(monkeypatch):
    """Ticks and samples are scheduled as the run goes: the heap holds the
    frames in flight and one pending call per client and for sampling."""
    step = NetworkSim.step
    peaks = []

    def recording(sim):
        peaks[-1] = max(peaks[-1], sim.pending)
        return step(sim)

    monkeypatch.setattr(NetworkSim, "step", recording)
    for duration_ms in (2000, 20000):
        peaks.append(0)
        run_doc(two_client_doc(duration_ms=duration_ms))
    assert peaks[0] == peaks[1]
    assert peaks[0] < 2000 // 50


def test_straight_line_car_has_zero_divergence(tmp_path):
    """Constant velocity makes first-order prediction exact: after the first
    update is displayed, divergence stays at 0 (within 1e-9)."""
    tick_csv = tmp_path / "tick.csv"
    res = run_doc(two_client_doc(), out=tick_csv)
    rows = [r for r in read_rows(tick_csv) if r[1] == 0]
    assert len(rows) > 50
    assert all(r[8] <= 1e-9 for r in rows)
    assert res.summary["max_divergence_m"] <= 1e-9


def test_same_seed_byte_identical_outputs(tmp_path):
    doc = two_client_doc()
    doc["links"][0]["jitter_ms"] = 40
    doc["clients"][0]["entities"][0]["events"] = [
        {"kind": "fire", "first": 500, "every": 250, "count": 10}]
    paths = {}
    for tag in ("a", "b"):
        paths[tag] = {kind: tmp_path / f"{tag}.{kind}" for kind in
                      ("tick", "events", "deliveries", "trace")}
        run_doc(doc, out=paths[tag]["tick"], events_out=paths[tag]["events"],
                deliveries_out=paths[tag]["deliveries"],
                trace_out=paths[tag]["trace"])
    for kind in ("tick", "events", "deliveries", "trace"):
        assert paths["a"][kind].read_bytes() == paths["b"][kind].read_bytes(), kind


def test_aborted_run_closes_its_output_files(tmp_path, monkeypatch):
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    def failing_tick(self, now):
        raise RuntimeError("tick failed")

    monkeypatch.setattr(runner, "open", recording_open, raising=False)
    monkeypatch.setattr(PlayerManager, "tick", failing_tick)
    with pytest.raises(RuntimeError, match="tick failed"):
        run_doc(two_client_doc(), out=tmp_path / "tick",
                deliveries_out=tmp_path / "deliveries",
                trace_out=tmp_path / "trace")
    assert len(handles) == 3
    assert all(fh.closed for fh in handles)


def test_run_raises_young_gc_threshold_and_restores_it(monkeypatch):
    seen = []
    tick = PlayerManager.tick

    def recording_tick(self, now):
        seen.append(gc.get_threshold())
        return tick(self, now)

    monkeypatch.setattr(PlayerManager, "tick", recording_tick)
    before = gc.get_threshold()
    try:
        gc.set_threshold(700, 10, 10)
        run_doc(two_client_doc())
        assert gc.get_threshold() == (700, 10, 10)
        assert set(seen) == {(runner.YOUNG_GC_THRESHOLD, 10, 10)}

        seen.clear()
        gc.set_threshold(runner.YOUNG_GC_THRESHOLD * 2, 10, 10)
        run_doc(two_client_doc())
        assert set(seen) == {(runner.YOUNG_GC_THRESHOLD * 2, 10, 10)}

        seen.clear()
        gc.set_threshold(0, 10, 10)   # automatic collection off stays off
        run_doc(two_client_doc())
        assert set(seen) == {(0, 10, 10)}
    finally:
        gc.set_threshold(*before)


def test_aborted_run_restores_gc_threshold(monkeypatch):
    def failing_tick(self, now):
        raise RuntimeError("tick failed")

    monkeypatch.setattr(PlayerManager, "tick", failing_tick)
    before = gc.get_threshold()
    with pytest.raises(RuntimeError, match="tick failed"):
        run_doc(two_client_doc())
    assert gc.get_threshold() == before


def test_different_seed_changes_jittered_run(tmp_path):
    doc = two_client_doc()
    doc["links"][0]["jitter_ms"] = 40
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    run_doc(doc, trace_out=a, seed=1)
    run_doc(doc, trace_out=b, seed=2)
    assert a.read_bytes() != b.read_bytes()


def test_summary_matches_recomputation_from_csv(tmp_path):
    doc = two_client_doc()
    doc["clients"][0]["entities"][0]["motion"] = {
        "kind": "waypoints",
        "points": [[0, 0], [20, 2], [40, 0], [60, 2], [80, 0]],
        "speed": 10.0}
    doc["clients"][0]["entities"][0]["events"] = [
        {"kind": "fire", "first": 600, "every": 300, "count": 8}]
    doc["policies"]["default"]["lag_ms"] = 300
    tick_csv = tmp_path / "tick.csv"
    events_csv = tmp_path / "events.csv"
    deliveries_csv = tmp_path / "deliveries.csv"
    summary_file = tmp_path / "summary.txt"
    res = run_doc(doc, out=tick_csv, events_out=events_csv,
                  deliveries_out=deliveries_csv, summary_out=summary_file)

    tick_lines = tick_csv.read_text().splitlines()
    divs = [float(line.split(",")[8]) for line in tick_lines[1:]]
    assert len(divs) == res.summary["divergence_rows"]
    assert sum(divs) / len(divs) == res.summary["mean_divergence_m"]
    assert max(divs) == res.summary["max_divergence_m"]

    event_lines = events_csv.read_text().splitlines()
    diffs = [abs(int(line.split(",")[5])) for line in event_lines[1:]]
    assert len(diffs) == res.summary["event_rows"]
    assert sum(diffs) / len(diffs) == res.summary["mean_abs_display_diff_ms"]

    delivery_lines = deliveries_csv.read_text().splitlines()
    delays = [int(line.split(",")[5]) for line in delivery_lines[1:]]
    assert sum(delays) / len(delays) == res.summary["mean_delay_ms"]

    text = summary_file.read_text()
    assert f"mean_divergence_m={res.summary['mean_divergence_m']!r}" in text


def test_no_lates_when_lag_covers_max_delay():
    doc = two_client_doc()
    doc["links"][0]["jitter_ms"] = 50
    doc["policies"]["default"]["lag_ms"] = 500   # d_max = 300 < 500
    res = run_doc(doc)
    assert res.summary["late_messages"] == 0
    assert res.summary["late_fraction"] == 0.0


def jittered_zero_lag_doc():
    doc = two_client_doc(seed=3)
    doc["links"][0]["jitter_ms"] = 200
    doc["links"][0]["base_delay_ms"] = 210
    doc["policies"]["default"]["lag_ms"] = 0
    doc["policies"]["heartbeat_ms"] = 50
    return doc


def test_jitter_produces_late_states_but_no_rollbacks_with_zero_lag():
    res = run_doc(jittered_zero_lag_doc())
    assert res.summary["late_messages"] > 0
    assert res.summary["rollbacks"] == 0


def test_jitter_produces_event_rollbacks_with_zero_lag():
    doc = jittered_zero_lag_doc()
    doc["clients"][1]["entities"][0]["events"] = [
        {"kind": "fire", "first": 100, "every": 50, "count": 90}]
    res = run_doc(doc)
    assert res.summary["rollbacks"] > 0


def test_events_beyond_the_history_window_reach_the_summary_not_the_game():
    """A link slower than the rollback log's history window delivers every
    event too old to order: each is counted once and none is played out."""
    doc = two_client_doc()
    doc["links"][0]["base_delay_ms"] = DEFAULT_HISTORY_WINDOW_MS + 500
    doc["clients"][0]["entities"][0]["events"] = [
        {"kind": "fire", "first": 100, "every": 100, "count": 10}]
    res = run_doc(doc)
    viewer = res.pms[1]
    assert viewer.counters.beyond_window == 10
    assert res.summary["dropped_beyond_window"] == 10
    assert len(res.pms[0].callbacks.event_streams[0, 0][0]) == 10
    assert [time for (sender, _), (_, times)
            in viewer.callbacks.event_streams.items() if sender == 0
            for time in times if time >= 0] == []
    assert res.summary["event_rows"] == 0


# -- event rows against the dict-keyed record --------------------------------

def reference_event_rows(clients, playouts):
    """The event rows as a record keyed by (sender, entity, seq) gives them:
    playouts[client] maps each key the client played out to its first
    playout time, and each of an owner entity's keys, in order, gives one
    row per other client, in client order, that played it out."""
    rows = []
    for owner, entities in clients:
        for entity in entities:
            for key in sorted(k for k in playouts[owner]
                              if k[0] == owner and k[1] == entity):
                local = playouts[owner][key]
                for viewer, _ in clients:
                    remote = playouts[viewer].get(key)
                    if viewer != owner and remote is not None:
                        rows.append((key[2], owner, viewer, local, remote,
                                     remote - local))
    return rows


@st.composite
def event_docs(draw):
    """Small documents whose event rows exercise the record: two to four
    clients with one or two firing entities each (so event seqs interleave
    with state updates and a client's two entities share seqs), jitter
    above the local lag (so rollbacks replay events), loss, one link slower
    than the history window, and events fired too late in the run for
    their owner to play out."""
    n = draw(st.integers(2, 4))
    lag = draw(st.sampled_from([50, 100, 150]))
    duration = draw(st.integers(DEFAULT_HISTORY_WINDOW_MS + 300, 3500))
    clients = []
    for cid in range(n):
        entities = []
        for k in range(draw(st.integers(1, 2))):
            x, y = 20.0 * cid, 20.0 * k
            every = draw(st.integers(30, 200))
            entities.append({
                "id": 2 * cid + k, "class": "tank",
                "motion": {"kind": "waypoints",
                           "points": [[x, y], [x + 4, y], [x + 4, y + 4]],
                           "speed": 2.0, "loop": True},
                "events": [{"kind": "fire", "first": draw(st.integers(0, 300)),
                            "every": every, "count": duration // every + 1}]})
        clients.append({"id": cid, "entities": entities})
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    slow = draw(st.integers(0, len(pairs) - 1))
    links = [{"id": i, "endpoints": [a, b],
              "base_delay_ms": (DEFAULT_HISTORY_WINDOW_MS + 100 if i == slow
                                else draw(st.integers(20, 150))),
              "jitter_ms": lag + draw(st.integers(10, 120)),
              "loss_prob": draw(st.sampled_from([0.0, 0.1, 0.3]))}
             for i, (a, b) in enumerate(pairs)]
    return {"duration_ms": duration, "tick_ms": 50,
            "seed": draw(st.integers(0, 2**16)),
            "clients": clients, "links": links,
            "policies": {"default": {"threshold_m": 0.5,
                                     "convergence_ms": 0, "lag_ms": lag},
                         "heartbeat_ms": 200},
            "toggles": {}}


@settings(deadline=None)
@given(event_docs())
def test_event_rows_match_the_dict_keyed_record(doc):
    """Every event a bot plays out also goes, through a spy, into a record
    keyed by (sender, entity, seq), and so does a forged copy from a client
    that does not own the entity, one seq on; the events CSV must hold
    exactly the rows that record gives."""
    clients = [(c["id"], [e["id"] for e in c["entities"]])
               for c in doc["clients"]]
    playouts = {cid: {} for cid, _ in clients}
    apply_event = runner._Bot.apply_event

    def spy(bot, msg):
        forged = msg._replace(sender_id=(msg.sender_id + 1) % len(clients),
                              seq=msg.seq + 1)
        for played in (msg, forged):
            playouts[bot.client_id].setdefault(played[:3], bot._now_fn())
            apply_event(bot, played)

    runner._Bot.apply_event = spy
    try:
        with tempfile.TemporaryDirectory() as tmp:
            events_csv = Path(tmp) / "events.csv"
            res = run_doc(doc, events_out=events_csv)
            rows = read_rows(events_csv)
    finally:
        runner._Bot.apply_event = apply_event
    assert rows == reference_event_rows(clients, playouts)
    assert res.summary["event_rows"] == len(rows)


def test_playout_record_takes_one_slot_per_distinct_seq():
    """Events with seq 2**32 - 1, from a sender that does not own the
    entity, and repeated, raise nothing, keep each bot's first playout,
    take one slot per distinct seq whatever its value, and give no row:
    the owner never played out its own event, and a sender's stream of an
    entity it does not own is not an owner stream."""
    clients = sorted(parse_scenario(two_client_doc()).clients,
                     key=lambda c: c.client_id)
    now = [100]
    seq_slots = {}
    bots = {c.client_id: runner._Bot(c, lambda: now[0], seq_slots)
            for c in clients}
    top = 2**32 - 1
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            bots[1].apply_event(EventMessage(0, 0, top, 0, EventKind.FIRE))
            for bot in bots.values():
                for seq in (top, 5):
                    bot.apply_event(EventMessage(1, 0, seq, 0, EventKind.FIRE))
            now[0] += 50
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert seq_slots == {(0, 0): {top: 0}, (1, 0): {top: 0, 5: 1}}
    assert bots[1].event_streams[0, 0][1][:1].tolist() == [100]
    for bot in bots.values():
        assert bot.event_streams[1, 0][1][:3].tolist() == [100, 100, -1]
    # Three one-block arrays (about 2.2 KB each with the array's own
    # over-allocation) and small tables; an array indexed by seq would need
    # 32 GiB.
    assert grown < 16 * 1024
    assert list(runner._event_rows(clients, bots)) == []


def skirmish_doc(duration_ms):
    """Six tanks firing every 50 ms over a relay mesh whose jitter spread
    exceeds the local lag."""
    clients = [{"id": cid, "entities": [{
        "id": cid, "class": "tank",
        "motion": {"kind": "waypoints",
                   "points": [[60.0 * cid, 0], [60.0 * cid + 10, 0],
                              [60.0 * cid + 10, 10]],
                   "speed": 2.2, "loop": True},
        "events": [{"kind": "fire", "first": 500 + 50 * cid, "every": 50,
                    "count": duration_ms // 50}]}]} for cid in range(6)]
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    links = [{"id": i, "endpoints": [a, b], "base_delay_ms": 80 + 3 * i,
              "jitter_ms": 60} for i, (a, b) in enumerate(pairs)]
    return {"duration_ms": duration_ms, "tick_ms": 50, "seed": 1,
            "clients": clients, "links": links,
            "policies": {"default": {"threshold_m": 0.5, "convergence_ms": 0,
                                     "lag_ms": 100},
                         "heartbeat_ms": 1000}}


def test_playout_record_grows_by_at_most_32_bytes_per_recorded_event(
        monkeypatch):
    """The peak memory a run's playout record adds, measured with
    tracemalloc against the same run with a game that records nothing,
    grows by at most 32 bytes per extra (event, viewer) it records when
    the run doubles in length."""
    def peak(config):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run(config)
            return tracemalloc.get_traced_memory()[1] - before, res
        finally:
            tracemalloc.stop()

    def record_peak(config):
        with_record, res = peak(config)
        recorded = sum(time >= 0 for pm in res.pms.values()
                       for _, times in pm.callbacks.event_streams.values()
                       for time in times)
        del res
        monkeypatch.setattr(runner._Bot, "apply_event", lambda bot, msg: None)
        without_record, _ = peak(config)
        monkeypatch.undo()
        return with_record - without_record, recorded

    short, short_recorded = record_peak(parse_scenario(skirmish_doc(8000)))
    long, long_recorded = record_peak(parse_scenario(skirmish_doc(16000)))
    assert long_recorded > 2 * short_recorded > 0
    assert (long - short) / (long_recorded - short_recorded) <= 32


def test_loss_is_counted_and_conserved():
    doc = two_client_doc()
    doc["links"][0]["loss_prob"] = 0.3
    doc["policies"]["heartbeat_ms"] = 50
    res = run_doc(doc)
    s = res.summary
    assert s["messages_dropped_network"] > 0
    assert s["messages_sent"] == (s["messages_delivered"]
                                  + s["messages_dropped_network"]
                                  + s["messages_in_flight_at_end"])


def test_latency_restimation_after_step_change():
    """Link delay steps 100 -> 300 at t=5000; the receiver's estimate is
    within 5% of 300 by the 25th post-change sample."""
    doc = two_client_doc()
    doc["duration_ms"] = 8000
    doc["links"][0]["base_delay_ms"] = 100
    doc["link_events"] = [{"at": 5000, "link": 0, "base_delay_ms": 300}]
    doc["policies"]["heartbeat_ms"] = 50
    observed = run_observing_estimates(parse_scenario(doc), 1)
    trace = [est for (link, delay), est in observed
             if link == 0 and delay == 300]
    assert len(trace) >= 25
    estimate_25 = trace[24]
    assert abs(estimate_25 - 300.0) <= 0.05 * 300.0
    closed_form = 300.0 - 200.0 * (0.875 ** 25)
    assert math.isclose(estimate_25, closed_form, rel_tol=1e-9)


def test_mean_delay_reflects_link():
    res = run_doc(two_client_doc())
    assert res.summary["mean_delay_ms"] == 250.0


def test_heartbeat_keeps_streams_alive():
    doc = two_client_doc()
    doc["policies"]["heartbeat_ms"] = 1000
    res = run_doc(doc)
    # stationary client 1 still sends one update per second
    assert res.pms[0].counters.data_received >= 5


def test_clock_offset_flags_anomalies():
    doc = two_client_doc()
    doc["clients"][1]["clock_offset_ms"] = -400
    res = run_doc(doc)
    assert res.summary["clock_anomalies"] > 0


def test_run_leaves_its_config_unchanged(tmp_path):
    """A link that goes down and stays down is down only in the run's own
    simulator: the same parsed config runs again to the same bytes, and its
    links are all still available afterwards."""
    doc = small_mesh_doc()
    doc["link_events"] = [e for e in doc["link_events"]
                          if e.get("available") is not True]
    config = parse_scenario(doc)
    outputs = []
    for tag in ("first", "second"):
        paths = {kind: tmp_path / f"{tag}.{kind}"
                 for kind in ("tick", "events", "deliveries", "trace")}
        run(config, out=paths["tick"], events_out=paths["events"],
            deliveries_out=paths["deliveries"], trace_out=paths["trace"])
        outputs.append({kind: path.read_bytes() for kind, path in paths.items()})
    assert outputs[0] == outputs[1]
    assert all(link.available for link in config.links)


def test_tracing_does_not_change_outputs(tmp_path):
    """A trace only adds its own file: the CSVs are byte-identical and the
    summaries equal apart from wall-clock timings."""
    outputs, summaries = [], []
    for tag, trace_out in (("plain", None), ("traced", tmp_path / "trace")):
        paths = {kind: tmp_path / f"{tag}.{kind}"
                 for kind in ("tick", "events", "deliveries")}
        res = run_doc(small_mesh_doc(), out=paths["tick"],
                      events_out=paths["events"],
                      deliveries_out=paths["deliveries"], trace_out=trace_out)
        outputs.append({kind: path.read_bytes() for kind, path in paths.items()})
        summaries.append({key: value for key, value in res.summary.items()
                          if key != "wall_time_s"
                          and not key.startswith("processing_")})
    assert outputs[0] == outputs[1]
    assert summaries[0] == summaries[1]
    assert (tmp_path / "trace").stat().st_size > 0


def _shown_points(self, now):
    """Displays that make viewers of one entity share points. On every
    other tick odd viewers show x = -0.0 and even ones x = 0.0: equal
    points whose rows render apart. On the others viewer 4 shows y = 0.0,
    viewer 3 one point for every entity, and the rest share one nonzero
    point per entity. Nothing is shown
    before the first update could arrive."""
    if now < 100:
        return {}
    viewer = self.config.client_id
    shown = {}
    for entity in range(5):
        if entity == viewer:
            continue
        if now % 100 == 0:
            shown[entity] = (-0.0 if viewer % 2 else 0.0, 2.5)
        elif viewer == 4:
            shown[entity] = (1.5, 0.0)
        elif viewer == 3:
            shown[entity] = (7.5, 7.5)      # the same point for every entity
        else:
            shown[entity] = (1.25 + entity, now / 1000.0)
    return shown


def test_rows_of_a_shared_point_equal_rows_formatted_one_by_one(
        tmp_path, monkeypatch):
    monkeypatch.setattr(PlayerManager, "displayed_positions", _shown_points)
    out = tmp_path / "tick.csv"
    res = run_doc(small_mesh_doc(), out=out)
    lines = out.read_text().splitlines(keepends=True)
    rows = read_rows(out)
    assert lines[0] == TICK_HEADER + "\n"
    assert lines[1:] == [TICK_ROW % row for row in rows]
    assert len(lines) > 1
    signs = {(row[1], row[3]): repr(row[6]) for row in rows if row[0] == 200}
    assert signs[(0, 1)] == signs[(0, 3)] == "-0.0"
    assert signs[(0, 2)] == signs[(0, 4)] == "0.0"
    # the statistics sum the divergences in row order
    total = 0.0
    for row in rows:
        total += row[8]
    assert res.summary["mean_divergence_m"] == total / len(rows)
    assert res.summary["max_divergence_m"] == max(r[8] for r in rows)


class _CountingTemplate(str):
    """A %-template that counts its uses."""

    def __new__(cls, template, uses):
        obj = super().__new__(cls, template)
        obj.uses = uses
        return obj

    def __mod__(self, values):
        self.uses.append(str(self))
        return str.__mod__(self, values)


def test_sampling_formats_nothing_without_a_tick_file(tmp_path, monkeypatch):
    uses = []
    for name in ("TICK_ENTITY", "TICK_TRUTH", "TICK_VIEWER", "TICK_SHOWN",
                 "TICK_SHARED"):
        monkeypatch.setattr(runner, name,
                            _CountingTemplate(getattr(runner, name), uses))
    run_doc(small_mesh_doc())
    assert uses == []
    run_doc(small_mesh_doc(), out=tmp_path / "tick.csv")
    assert set(uses) == {runner.TICK_ENTITY, runner.TICK_TRUTH,
                         runner.TICK_VIEWER, runner.TICK_SHOWN,
                         runner.TICK_SHARED}


def dead_route_repair_doc(standing_entity):
    """Two clients and two relay links: link 0 goes down at 1000 ms, link 1
    at 2000 ms, and link 0 comes back at 3000 ms. Client 1 has no entity,
    or one standing entity whose 4000 ms heartbeat sends nothing between
    2000 and 3000 ms, so it has no frame queued when link 0 comes back."""
    doc = two_client_doc()
    doc["links"] = [{"id": 0, "endpoints": [0, 1], "base_delay_ms": 250},
                    {"id": 1, "endpoints": [0, 1], "base_delay_ms": 250}]
    doc["link_events"] = [{"at": 1000, "link": 0, "available": False},
                          {"at": 2000, "link": 1, "available": False},
                          {"at": 3000, "link": 0, "available": True}]
    if standing_entity:
        doc["policies"]["heartbeat_ms"] = 4000
    else:
        doc["clients"][1]["entities"] = []
    return doc


@pytest.mark.parametrize("standing_entity", [False, True])
def test_link_coming_back_repairs_a_route_with_nothing_queued(
        standing_entity, tmp_path):
    tick_csv = tmp_path / "tick.csv"
    res = run_doc(dead_route_repair_doc(standing_entity), out=tick_csv)
    pm = res.pms[1]
    assert (pm.counters.route_switches, pm.counters.route_failovers) == (2, 2)
    assert pm.peers[0].route == 0
    # both clients fail over at 1000 ms and are repaired at 3000 ms
    assert res.summary["route_failovers"] == res.summary["route_switches"] == 4
    rows = read_rows(tick_csv)
    assert {(row[0] >= 1000, row[0] >= 3000, row[10]) for row in rows
            if row[2] == 0} == {(False, False, 0), (True, False, 1),
                                (True, True, 0)}
    routes = {row[10] for row in rows if row[2] == 1 and row[0] >= 3000}
    assert routes == ({0} if standing_entity else set())


def unknown_address_doc():
    """Two clients, a relay (link 0) and a direct link (link 1); client 0
    does not know client 1's direct address. Link 1 goes down at 500 ms,
    link 0 at 1000 ms, and link 1 comes back at 1500 ms."""
    doc = two_client_doc()
    doc["duration_ms"] = 3000
    doc["links"] = [{"id": 0, "endpoints": [0, 1], "base_delay_ms": 250},
                    {"id": 1, "endpoints": [0, 1], "base_delay_ms": 40,
                     "kind": "direct"}]
    doc["clients"][1]["direct_address_known"] = False
    doc["link_events"] = [{"at": 500, "link": 1, "available": False},
                          {"at": 1000, "link": 0, "available": False},
                          {"at": 1500, "link": 1, "available": True}]
    return doc


def test_link_event_never_brings_up_a_direct_link_to_an_unknown_address(
        tmp_path):
    trace = tmp_path / "trace.txt"
    res = run_doc(unknown_address_doc(), trace_out=trace)
    pm = res.pms[0]
    assert (pm.counters.route_switches, pm.counters.route_failovers) == (0, 0)
    assert pm.links_by_id[1].available is False
    sends = [line.split("\t") for line in trace.read_text().splitlines()
             if line.split("\t")[1] == "SEND"]
    assert [s for s in sends if s[2] == "1" and s[3] == "0"] == []
    assert any(s[2] == "0" and s[3] == "0" for s in sends)


@pytest.mark.parametrize("first, second", [(300, 200), (200, 300)])
def test_same_time_delay_changes_apply_in_document_order(first, second,
                                                         tmp_path):
    """Two base_delay_ms changes to one link at 1000 ms: the later one in
    the document holds for every frame sent from 1000 ms on."""
    doc = two_client_doc()
    doc["duration_ms"] = 2000
    doc["links"][0]["base_delay_ms"] = 100
    doc["policies"]["heartbeat_ms"] = 50
    doc["link_events"] = [{"at": 1000, "link": 0, "base_delay_ms": first},
                          {"at": 1000, "link": 0, "base_delay_ms": second}]
    deliveries = tmp_path / "deliveries.csv"
    run_doc(doc, deliveries_out=deliveries)
    sent_and_delay = [(int(row[0]) - int(row[5]), int(row[5])) for row in
                      (line.split(",")
                       for line in deliveries.read_text().splitlines()[1:])]
    assert {delay for sent, delay in sent_and_delay if sent < 1000} == {100}
    assert {delay for sent, delay in sent_and_delay
            if sent >= 1000} == {second}


def stuck_route_doc(unreachable):
    """Two clients and two links. With unreachable, link 0 is direct and
    client 1's direct address is unknown to client 0, and link 1 (a relay)
    starts down and comes up at 1000 ms: client 0's route sits on link 0,
    down only in its own copy, until link 1 comes up. Otherwise both are
    relays and link 0 goes down at 1000 ms."""
    doc = two_client_doc()
    doc["duration_ms"] = 2000
    doc["links"] = [{"id": 0, "endpoints": [0, 1], "base_delay_ms": 250},
                    {"id": 1, "endpoints": [0, 1], "base_delay_ms": 250}]
    if unreachable:
        doc["links"][0]["kind"] = "direct"
        doc["links"][1]["available"] = False
        doc["clients"][1]["direct_address_known"] = False
        doc["link_events"] = [{"at": 1000, "link": 1, "available": True}]
    else:
        doc["link_events"] = [{"at": 1000, "link": 0, "available": False}]
    return doc


@pytest.mark.parametrize("unreachable", [False, True])
def test_route_left_on_a_down_link_fails_the_next_sample(unreachable,
                                                         monkeypatch):
    """Client 0's manager takes link changes into its copy but never moves
    its route, so from 1000 ms its route to client 1 sits on link 0, down
    in its copy, while link 1 is up. The sample at 1000 ms reports it, on a
    link down in the simulator or on one only client 0 holds down."""
    on_link_change = PlayerManager.on_link_change

    def no_failover(self, link_id, available, now):
        if self.config.client_id == 0:
            if link_id not in self.unreachable:
                self.links_by_id[link_id].available = available
        else:
            on_link_change(self, link_id, available, now)

    monkeypatch.setattr(PlayerManager, "on_link_change", no_failover)
    with pytest.raises(InvariantViolation,
                       match="^client 0 holds a dead route to 1 at 1000$"):
        run_doc(stuck_route_doc(unreachable))


def test_delay_change_at_zero_reaches_the_session_start_pings(monkeypatch):
    """Link 0 goes from 250 ms to 100 ms at 0 ms: the session-start pings
    already take 100 ms each way, so the first RTT sample is 100 ms."""
    doc = two_client_doc()
    doc["link_events"] = [{"at": 0, "link": 0, "base_delay_ms": 100}]
    probes = []
    rtt_probe = player.rtt_probe

    def recording(ping, pong, now):
        probes.append(rtt_probe(ping, pong, now))
        return probes[-1]

    monkeypatch.setattr(player, "rtt_probe", recording)
    run_doc(doc)
    assert probes[0] == 100


def test_delay_change_with_a_link_coming_up_reaches_the_flushed_frames(
        tmp_path):
    """Link 0 goes down at 500 ms and comes up at 1000 ms with a 100 ms
    delay: the frames queued meanwhile are flushed at 1000 ms and arrive at
    1100 ms, like the frames sent at 1000 ms."""
    doc = two_client_doc()
    doc["duration_ms"] = 2000
    doc["policies"]["heartbeat_ms"] = 50
    doc["link_events"] = [{"at": 500, "link": 0, "available": False},
                          {"at": 1000, "link": 0, "available": True,
                           "base_delay_ms": 100}]
    deliveries = tmp_path / "deliveries.csv"
    run_doc(doc, deliveries_out=deliveries)
    rows = [(int(row[0]) - int(row[5]), int(row[0])) for row in
            (line.split(",")
             for line in deliveries.read_text().splitlines()[1:])]
    flushed = [arrived for sent, arrived in rows if 500 <= sent < 1000]
    assert flushed and set(flushed) == {1100}
    assert {arrived - sent for sent, arrived in rows if sent >= 1000} == {100}


def test_nothing_a_manager_keeps_grows_with_run_length():
    """Run the small mesh for 3 s and for 12 s, four times as long, with
    client 3 firing every 150 ms throughout, so the rollback log takes
    events for the whole run. Every sized attribute of a manager except
    processing_ns, which keeps one time per received frame, is at most
    `slack` entries longer at 12 s than at 3 s, taking the longest over the
    managers. The ping table is bounded instead by its window: it holds the
    pings of the last history window, at most one per link per idle-ping
    interval."""
    slack = 2
    lengths = []
    for duration_ms in (3000, 12000):
        doc = small_mesh_doc()
        doc["duration_ms"] = duration_ms
        doc["clients"][3]["entities"][0]["events"][0]["count"] = (
            duration_ms // 150)
        pms = run_doc(doc).pms.values()
        longest = {}
        for pm in pms:
            for name, value in vars(pm).items():
                if isinstance(value, Sized) and name != "processing_ns":
                    longest[name] = max(longest.get(name, 0), len(value))
        lengths.append(longest)
    short, long = lengths
    assert short.keys() == long.keys()
    pings = long.pop("_outstanding_pings")
    assert pings <= max(len(pm.links_by_id) for pm in pms) * (
        DEFAULT_HISTORY_WINDOW_MS // doc["policies"]["idle_ping_ms"] + 1)
    grown = {name: (short[name], n) for name, n in long.items()
             if n > short[name] + slack}
    assert grown == {}


def test_every_manager_keeps_its_attributes_in_the_shared_key_budget():
    """CPython 3.11 lets the instances of a class share one key table for
    their attribute dicts only while an instance has fewer than 30
    attributes (a manager's dict is 296 bytes at 29, 1584 at 30). Past
    that, attribute loads on every path of a run get slower: three unused
    attributes added to a manager cost carrace's vsim_per_s 388.7 -> 359.5
    and recv_us_p50 13.6 -> 15.3 us, worse in 4 of 4 alternating pairs of
    perfbench runs on a 2-vCPU VM. New per-manager state must replace
    attributes, not add to them."""
    res = run_doc(small_mesh_doc())
    assert all(len(vars(pm)) <= 29 for pm in res.pms.values())
