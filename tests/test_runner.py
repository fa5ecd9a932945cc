"""End-to-end scenario runs: closed-form expectations, determinism, and
summary consistency with the emitted files."""

import gc
import math

import pytest

from conftest import run_observing_estimates, two_client_doc
from gamesync import runner
from gamesync.player import PlayerManager
from gamesync.runner import run
from gamesync.scenario import parse_scenario


def run_doc(doc, **kwargs):
    return run(parse_scenario(doc), **kwargs)


def test_fire_event_display_diff_zero_closed_form():
    """L >= d with sender-side lag: both sides play out at timestamp + L,
    so every display-time difference is exactly zero.

    Hand trace of one event: fired at t=1000 (timestamp 1000), L=500 ->
    local playout due 1500; arrival at 1250, same due 1500; both release on
    the 1500 tick."""
    doc = two_client_doc()
    doc["policies"]["default"]["lag_ms"] = 500
    doc["clients"][0]["entities"][0]["events"] = [
        {"kind": "fire", "first": 1000, "every": 500, "count": 6}]
    res = run_doc(doc)
    assert res.summary["event_rows"] == 6
    assert [r for r in res.event_rows if r[5] != 0] == []
    assert res.summary["mean_abs_display_diff_ms"] == 0.0
    first = res.event_rows[0]
    assert (first[3], first[4]) == (1500, 1500)


def test_straight_line_car_has_zero_divergence():
    """Constant velocity makes first-order prediction exact: after the first
    update is displayed, divergence stays at 0 (within 1e-9)."""
    res = run_doc(two_client_doc(), keep_rows=True)
    rows = [r for r in res.tick_rows if r[1] == 0]
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


def test_jitter_produces_lates_and_rollbacks_with_zero_lag():
    doc = two_client_doc(seed=3)
    doc["links"][0]["jitter_ms"] = 200
    doc["links"][0]["base_delay_ms"] = 210
    doc["policies"]["default"]["lag_ms"] = 0
    doc["policies"]["heartbeat_ms"] = 50
    res = run_doc(doc)
    assert res.summary["late_messages"] > 0
    assert res.summary["rollbacks"] > 0


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
    trace = [est for s, est in observed
             if s.peer_id[0] == 0 and s.delay_ms == 300]
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
