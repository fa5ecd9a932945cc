"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them live)."""

import itertools
import json
import os
import random
import subprocess
import sys
import time

from conftest import (SCENARIOS, read_rows, run_observing_estimates,
                      two_client_doc)
from gamesync.compare import compare
from gamesync.netsim import SimRng
from gamesync.pdu import EventKind, EventMessage
from gamesync.rollback import (Apply, DeliveryLog, RollbackDirective,
                               apply_directive)
from gamesync.runner import run
from gamesync.scenario import load_scenario, parse_scenario


def _report(criterion, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion} ({name}): {status} -- {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


# -- 1. processing overhead --------------------------------------------------

def test_criterion_1_processing_overhead():
    config = load_scenario(SCENARIOS / "carrace.json")
    t0 = time.perf_counter()
    res = run(config)
    wall = time.perf_counter() - t0
    s = res.summary
    detail = (f"messages={s['processing_count']} "
              f"p50={s['processing_us_p50']:.1f}us "
              f"p99={s['processing_us_p99']:.1f}us wall={wall:.2f}s")
    passed = (s["processing_count"] >= 10_000
              and s["processing_us_p50"] <= 1_000.0
              and s["processing_us_p99"] <= 5_000.0
              and wall < 10.0)
    _report(1, "processing overhead", passed, detail)


# -- 2. local-lag exactness --------------------------------------------------

def test_criterion_2_local_lag_exactness(tmp_path):
    config = load_scenario(SCENARIOS / "tankshots.json")
    res = run(config)
    mean_diff = res.summary["mean_abs_display_diff_ms"]
    rows = res.summary["event_rows"]

    doc = json.loads((SCENARIOS / "tankshots.json").read_text())
    doc["links"][0]["jitter_ms"] = 50
    jittered = run(parse_scenario(doc))
    jitter_mean = jittered.summary["mean_abs_display_diff_ms"]
    jitter_late = jittered.summary["late_fraction"]

    detail = (f"events={rows} mean|diff|={mean_diff} "
              f"jitter: mean|diff|={jitter_mean} late_fraction={jitter_late}")
    passed = (rows >= 100 and mean_diff == 0.0
              and jitter_mean <= 50.0 and jitter_late == 0.0)
    _report(2, "local-lag exactness", passed, detail)


# -- 3. rollback order equivalence -------------------------------------------

class _MirrorGame:
    """Maintains the game-visible applied sequence for directives."""

    def __init__(self):
        self.sequence = []

    def apply_event(self, msg):
        self.sequence.append(msg)

    def undo_event(self, msg):
        assert self.sequence and self.sequence[-1] is msg
        self.sequence.pop()


def _deliver_stream(msgs, arrival_order):
    log = DeliveryLog(history_window_ms=10**9)
    game = _MirrorGame()
    for i, msg in enumerate(arrival_order):
        outcome = log.on_deliver(msg, now=msg.timestamp + 1000 + i)
        if isinstance(outcome, Apply):
            game.apply_event(msg)
        elif isinstance(outcome, RollbackDirective):
            apply_directive(game, outcome)
            log.commit(outcome)
        else:
            raise AssertionError(f"unexpected outcome {outcome}")
    return [_key(m) for m in game.sequence]


def _key(msg):
    """The order every viewer must apply events in, spelled out here
    rather than taken from rollback.order_key."""
    return (msg.timestamp, msg.sender_id, msg.entity_id, msg.seq)


def _event(ts, seq, sender=0, entity=0):
    return EventMessage(sender, entity, seq, ts, EventKind.FIRE, b"\x00" * 8)


def test_criterion_3_rollback_order_equivalence():
    # six events at distinct timestamps, and six twins: one sender's three
    # entities fire at 100 and 110 with the same seqs
    distinct = [_event(100 + 10 * i, seq=i + 1) for i in range(6)]
    twins = [_event(100 + 10 * i, seq=i + 1, entity=e)
             for i in range(2) for e in range(3)]
    failures = 0
    count = 0
    for msgs in (distinct, twins):
        expected = sorted(_key(m) for m in msgs)
        for perm in itertools.permutations(msgs):
            count += 1
            if _deliver_stream(msgs, perm) != expected:
                failures += 1
    assert count == 1440

    stream_failures = 0
    for stream in range(1000):
        rng = SimRng(stream + 1)
        msgs = [_event(100 + 20 * i, seq=i + 1,
                       sender=stream % 3) for i in range(50)]
        arrivals = []
        for i, m in enumerate(msgs):
            jitter = rng.next_int_symmetric(150)
            arrivals.append((max(m.timestamp + 1, m.timestamp + 100 + jitter),
                             i, m))
        arrivals.sort(key=lambda a: (a[0], a[1]))
        expected = sorted(_key(m) for m in msgs)
        if _deliver_stream(msgs, [m for _, _, m in arrivals]) != expected:
            stream_failures += 1

    detail = (f"permutations=1440 failures={failures}; "
              f"random streams=1000 failures={stream_failures}")
    _report(3, "rollback order equivalence",
            failures == 0 and stream_failures == 0, detail)


# -- 4. dead-reckoning error bound -------------------------------------------

def _slalom(x_end, step, amp):
    points = []
    count = int(x_end / step) + 1
    for i in range(count):
        points.append([i * step, amp if i % 2 == 0 else -amp])
    return points


def test_criterion_4_dead_reckoning_error_bound(tmp_path):
    doc = two_client_doc()
    doc["duration_ms"] = 12000
    doc["clients"][0]["entities"][0]["motion"] = {
        "kind": "waypoints", "points": _slalom(140, 5, 0.5), "speed": 10.0}
    doc["policies"]["default"] = {"threshold_m": 0.5, "convergence_ms": 0,
                                  "lag_ms": 0}
    run(parse_scenario(doc), out=tmp_path / "waypoints.csv")
    rows = [r for r in read_rows(tmp_path / "waypoints.csv") if r[1] == 0]
    bound = 0.5 + 10.0 * 250 / 1000.0 + 0.5
    worst = max(r[8] for r in rows)

    run(parse_scenario(two_client_doc(duration_ms=10000)),
        out=tmp_path / "cv.csv")
    cv_rows = [r for r in read_rows(tmp_path / "cv.csv") if r[1] == 0]
    cv_worst = max(r[8] for r in cv_rows)

    detail = (f"waypoint rows={len(rows)} worst={worst:.3f} bound={bound}; "
              f"constant-velocity worst={cv_worst:.2e} (tol 1e-9)")
    passed = (len(rows) > 100 and worst <= bound
              and len(cv_rows) > 100 and cv_worst <= 1e-9)
    _report(4, "dead-reckoning error bound", passed, detail)


# -- 5. determinism -----------------------------------------------------------

def _cli_run(scenario, outdir, tag):
    paths = {kind: outdir / f"{tag}.{kind}" for kind in
             ("tick.csv", "events.csv", "deliveries.csv", "trace.log")}
    cmd = [sys.executable, "-m", "gamesync", "run", str(scenario),
           "--out", str(paths["tick.csv"]),
           "--events", str(paths["events.csv"]),
           "--deliveries", str(paths["deliveries.csv"]),
           "--trace", str(paths["trace.log"])]
    # the child imports gamesync from wherever this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return paths


def test_criterion_5_determinism(tmp_path):
    identical = True
    checked = []
    for scenario in ("carrace.json", "tankshots.json"):
        a = _cli_run(SCENARIOS / scenario, tmp_path, f"a-{scenario}")
        b = _cli_run(SCENARIOS / scenario, tmp_path, f"b-{scenario}")
        for kind in a:
            same = a[kind].read_bytes() == b[kind].read_bytes()
            identical = identical and same
            checked.append(f"{scenario}:{kind}={'ok' if same else 'DIFF'}")
    _report(5, "determinism", identical, " ".join(checked))


# -- 6. critical-region tightening ---------------------------------------------

def _tightening_doc(enabled):
    doc = two_client_doc()
    doc["seed"] = 21
    doc["duration_ms"] = 12000
    # direction changes every ~51 ms of travel: per-tick prediction error
    # grows ~0.2 m, so the tightened threshold fires every tick while the
    # normal one accumulates over several
    doc["clients"][0]["entities"][0]["motion"] = {
        "kind": "waypoints", "points": _slalom(130, 0.5, 0.05), "speed": 10.0}
    doc["clients"][1]["entities"][0]["motion"] = {
        "kind": "constant_velocity", "pos": [0, 100], "vel": [0, 0]}
    doc["regions"] = [{"kind": "rect", "min": [30, -5], "max": [70, 5]}]
    doc["policies"]["default"] = {"threshold_m": 0.5, "convergence_ms": 0,
                                  "lag_ms": 0}
    doc["policies"]["heartbeat_ms"] = 1000
    doc["toggles"] = {"critical_tightening": enabled}
    return doc


def test_criterion_6_critical_region_tightening(tmp_path):
    strong_csv = tmp_path / "strong.csv"
    normal_csv = tmp_path / "normal.csv"
    strong = run(parse_scenario(_tightening_doc(True)), out=strong_csv)
    normal = run(parse_scenario(_tightening_doc(False)), out=normal_csv)
    strong_rows, normal_rows = read_rows(strong_csv), read_rows(normal_csv)

    window = {r[0] for r in strong_rows if r[1] == 0 and r[9] == "strong"}
    strong_div = [r[8] for r in strong_rows if r[1] == 0 and r[0] in window]
    normal_div = [r[8] for r in normal_rows if r[1] == 0 and r[0] in window]
    assert len(strong_div) == len(normal_div) > 50
    mean_strong = sum(strong_div) / len(strong_div)
    mean_normal = sum(normal_div) / len(normal_div)

    sends_strong = strong.summary["sends_in_region"]
    sends_normal = normal.summary["sends_in_region"]

    deltas = compare(normal_csv, strong_csv)

    detail = (f"window_ticks={len(window)} divergence strong={mean_strong:.3f} "
              f"normal={mean_normal:.3f}; sends_in_region strong={sends_strong} "
              f"normal={sends_normal}; compare strong-window delta="
              f"{deltas['strong_mean_divergence_delta']:.3f}")
    passed = (mean_strong < mean_normal
              and sends_strong > sends_normal
              and deltas["strong_mean_divergence_delta"] < 0)
    _report(6, "critical-region tightening", passed, detail)


# -- 7. overlay benefit --------------------------------------------------------

def _overlay_doc(enabled):
    doc = two_client_doc()
    doc["seed"] = 31
    doc["duration_ms"] = 12000
    doc["clients"][0]["entities"][0]["motion"] = {
        "kind": "constant_velocity", "pos": [0, 0], "vel": [10, 0]}
    doc["clients"][1]["entities"][0]["motion"] = {
        "kind": "constant_velocity", "pos": [0, 3], "vel": [10, 0]}
    doc["links"] = [
        {"id": 0, "endpoints": [0, 1], "base_delay_ms": 250, "kind": "relay"},
        {"id": 1, "endpoints": [0, 1], "base_delay_ms": 40, "kind": "direct"}]
    doc["regions"] = [{"kind": "rect", "min": [20, -5], "max": [80, 5]}]
    doc["policies"]["default"] = {"threshold_m": 0.5, "convergence_ms": 0,
                                  "lag_ms": 0}
    doc["policies"]["heartbeat_ms"] = 50
    doc["toggles"] = {"overlay": enabled, "critical_tightening": True}
    return doc


def test_criterion_7_overlay_benefit(tmp_path):
    on_csv = tmp_path / "on.deliveries.csv"
    off_csv = tmp_path / "off.deliveries.csv"
    on = run(parse_scenario(_overlay_doc(True)), deliveries_out=on_csv)
    off = run(parse_scenario(_overlay_doc(False)), deliveries_out=off_csv)
    delay_on = on.summary["mean_delay_critical_ms"]
    delay_off = off.summary["mean_delay_critical_ms"]
    deltas = compare(off_csv, on_csv)
    assert deltas["critical_mean_delay_delta_ms"] <= -150.0

    hysteresis_ok = True
    for pm in on.pms.values():
        by_peer = {}
        for now, peer, _, _, failover in pm.switch_log:
            by_peer.setdefault(peer, []).append((now, failover))
        for events in by_peer.values():
            for (t_prev, _), (t_next, failover) in zip(events, events[1:]):
                if not failover and t_next - t_prev < 500:
                    hysteresis_ok = False

    switches = on.summary["route_switches"]
    detail = (f"critical delay on={delay_on:.1f}ms off={delay_off:.1f}ms "
              f"delta={delay_off - delay_on:.1f} (need >=150); "
              f"switches={switches} hysteresis_ok={hysteresis_ok}")
    passed = (delay_off - delay_on >= 150.0 and switches >= 2
              and hysteresis_ok and off.summary["route_switches"] == 0)
    _report(7, "overlay benefit", passed, detail)


# -- 8. latency re-estimation ---------------------------------------------------

def test_criterion_8_latency_reestimation():
    doc = two_client_doc()
    doc["duration_ms"] = 8000
    doc["links"][0]["base_delay_ms"] = 100
    doc["link_events"] = [{"at": 5000, "link": 0, "base_delay_ms": 300}]
    doc["policies"]["heartbeat_ms"] = 50
    observed = run_observing_estimates(parse_scenario(doc), 1)
    samples = [est for (link, delay), est in observed
               if link == 0 and delay == 300]
    estimate_25 = samples[24] if len(samples) >= 25 else None
    within = [i for i, est in enumerate(samples[:25])
              if abs(est - 300.0) <= 15.0]
    detail = (f"post-change samples={len(samples)} estimate@25={estimate_25} "
              f"first within 5% at sample {within[0] + 1 if within else 'never'}")
    passed = (len(samples) >= 25
              and abs(estimate_25 - 300.0) <= 0.05 * 300.0
              and bool(within))
    _report(8, "latency re-estimation", passed, detail)
