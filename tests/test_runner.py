"""End-to-end scenario runs: closed-form expectations, determinism, and
summary consistency with the emitted files."""

import gc
import math

import pytest

from conftest import run_observing_estimates, two_client_doc
from gamesync import runner
from gamesync.metrics import TICK_HEADER, TICK_ROW
from gamesync.netsim import NetworkSim
from gamesync.player import PlayerManager
from gamesync.runner import run
from gamesync.scenario import parse_scenario
from test_golden import small_mesh_doc


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
    res = run_doc(doc, keep_rows=True)
    assert res.summary["event_rows"] == 6
    assert [r for r in res.event_rows if r[5] != 0] == []
    assert res.summary["mean_abs_display_diff_ms"] == 0.0
    first = res.event_rows[0]
    assert (first[3], first[4]) == (1500, 1500)


def test_event_rows_are_kept_only_under_keep_rows(tmp_path):
    doc = two_client_doc()
    doc["links"][0]["jitter_ms"] = 40
    doc["clients"][0]["entities"][0]["events"] = [
        {"kind": "fire", "first": 500, "every": 250, "count": 10}]
    streamed = run_doc(doc, events_out=tmp_path / "streamed.csv")
    kept = run_doc(doc, events_out=tmp_path / "kept.csv", keep_rows=True)
    assert (streamed.event_rows, streamed.tick_rows) == ([], [])
    assert len(kept.event_rows) == kept.summary["event_rows"] == 10
    written = (tmp_path / "streamed.csv").read_text().splitlines()[1:]
    assert written == [",".join(map(repr, row)) for row in kept.event_rows]
    assert (tmp_path / "streamed.csv").read_bytes() == \
        (tmp_path / "kept.csv").read_bytes()


def test_kept_tick_rows_match_written_rows(tmp_path):
    """Sampling formats the columns an entity's viewers share once and
    writes a tick's rows in one batch; the file still holds every kept row
    as TICK_ROW renders it, and a run without a tick file sums the same
    divergences in the same order."""
    tick_csv = tmp_path / "tick.csv"
    written = run_doc(small_mesh_doc(), out=tick_csv, keep_rows=True)
    assert len(written.tick_rows) == written.summary["divergence_rows"] > 0
    assert tick_csv.read_bytes() == (TICK_HEADER + "\n" + "".join(
        TICK_ROW % row for row in written.tick_rows)).encode()
    unwritten = run_doc(small_mesh_doc(), keep_rows=True)
    assert unwritten.tick_rows == written.tick_rows
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
    res = run_doc(small_mesh_doc(), out=out, keep_rows=True)
    lines = out.read_text().splitlines(keepends=True)
    assert lines[0] == TICK_HEADER + "\n"
    assert lines[1:] == [TICK_ROW % row for row in res.tick_rows]
    assert len(lines) > 1
    signs = {(row[1], row[3]): repr(row[6])
             for row in res.tick_rows if row[0] == 200}
    assert signs[(0, 1)] == signs[(0, 3)] == "-0.0"
    assert signs[(0, 2)] == signs[(0, 4)] == "0.0"
    # the statistics sum the divergences in row order
    total = 0.0
    for row in res.tick_rows:
        total += row[8]
    assert res.summary["mean_divergence_m"] == total / len(res.tick_rows)
    assert res.summary["max_divergence_m"] == max(r[8] for r in res.tick_rows)


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
