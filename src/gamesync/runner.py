"""Scenario runner: drives the network simulator, one player manager per
client, and scripted bot games; emits per-tick divergence rows, per-event
display-time rows, optional per-delivery rows, a trace, and a summary.

Everything is deterministic given the scenario seed: all randomness flows
through the simulator's generator, bots are closed-form functions of virtual
time, and wall-clock measurements are recorded but never fed back into the
simulation.
"""

import gc
import time
from dataclasses import dataclass, field

from gamesync.deadreckoning import (DeadReckoningPolicy, EntityKinematics,
                                    dist)
from gamesync.locallag import LagPolicy
from gamesync.metrics import (DELIVERY_HEADER, DELIVERY_ROW, EVENT_HEADER,
                              EVENT_ROW, TICK_HEADER, TICK_ROW, CsvWriter,
                              RunningStats, format_summary, percentile)
from gamesync.netsim import InvariantViolation, NetworkSim
from gamesync.overlay import PeerCapabilities
from gamesync.player import (GameCallbacks, PlayerManager,
                             PlayerManagerConfig)
from gamesync.regions import RegionSet
from gamesync.scenario import ScenarioConfig

# Young-generation threshold of the cyclic collector during a run. A run keeps
# a sliding window of records alive (rollback log, playout buffers, the
# simulator's heap) and frees the oldest as it adds the newest, so the
# collector's allocation count climbs slowly while thousands of young records
# pile up, and each young collection walks them all. No collection during a
# run of the shipped scenarios or the perfbench workloads frees an object, so
# they are pure cost: CPython's default of 700 makes 119 young collections in
# a run of perfbench's six-tank skirmish, this threshold makes 4.
YOUNG_GC_THRESHOLD = 20_000


class _Bot(GameCallbacks):
    """Scripted game: closed-form motion (the divergence ground truth) and
    the first playout time of every event (for display-time differences).
    States, undos and mode changes keep the no-op default callbacks."""

    def __init__(self, client_spec, now_fn):
        self.client_id = client_spec.client_id
        self.entities = {e.entity_id: e for e in client_spec.entities}
        self._now_fn = now_fn
        self.event_playouts: dict[tuple, int] = {}   # first playout per event

    def query_local_state(self, entity_id):
        spec = self.entities[entity_id]
        t = self._now_fn()
        return EntityKinematics(spec.motion.position(t),
                                spec.motion.velocity(t), t)

    def apply_event(self, msg):
        key = (msg.sender_id, msg.entity_id, msg.seq)
        self.event_playouts.setdefault(key, self._now_fn())


@dataclass
class RunResult:
    summary: dict
    pms: dict
    bots: dict
    sim: NetworkSim
    event_rows: list
    tick_rows: list = field(default_factory=list)


def _build_pm_config(config: ScenarioConfig, client_spec) -> PlayerManagerConfig:
    pol = config.policies
    regions = RegionSet()
    for region in config.regions:
        regions.add(region)
    class_dr = {name: DeadReckoningPolicy(cp.threshold_m, cp.convergence_ms)
                for name, cp in pol.classes.items()}
    lag = LagPolicy(base_lag_ms={name: cp.lag_ms
                                 for name, cp in pol.classes.items()},
                    critical_scale=pol.critical_lag_scale,
                    default_lag_ms=pol.default.lag_ms)
    entity_class = {}
    entity_owner = {}
    for client in config.clients:
        for spec in client.entities:
            entity_class[spec.entity_id] = spec.class_id
            entity_owner[spec.entity_id] = client.client_id
    return PlayerManagerConfig(
        client_id=client_spec.client_id,
        dr_policy=DeadReckoningPolicy(pol.default.threshold_m,
                                      pol.default.convergence_ms),
        lag_policy=lag,
        regions=regions,
        links=[l for l in config.links
               if client_spec.client_id in l.endpoints],
        heartbeat_ms=pol.heartbeat_ms,
        local_entities=tuple(e.entity_id for e in client_spec.entities),
        entity_class=entity_class,
        class_dr_policies=class_dr,
        entity_owner=entity_owner,
        strong_threshold_scale=pol.critical_threshold_scale,
        exit_hysteresis_ms=pol.exit_hysteresis_ms,
        route_hysteresis_ms=pol.route_hysteresis_ms,
        overlay_enabled=config.toggles.overlay,
        rollback_scope=config.toggles.rollback_scope,
        sender_side_lag=config.toggles.sender_side_lag,
        receiver_side_lag=config.toggles.receiver_side_lag,
        critical_tightening=config.toggles.critical_tightening,
        idle_ping_ms=pol.idle_ping_ms,
        ewma_alpha=pol.ewma_alpha,
        clock_offset_ms=client_spec.clock_offset_ms,
        critical_proximity_radius_m=pol.critical_proximity_radius_m)


def run(config: ScenarioConfig, out=None, events_out=None, deliveries_out=None,
        trace_out=None, summary_out=None, seed=None, keep_rows=False) -> RunResult:
    """Run a scenario to completion. File arguments are paths or None.

    The collector's young-generation threshold is raised to
    YOUNG_GC_THRESHOLD for the run (unless it is higher or automatic
    collection is off) and restored when the run returns or aborts."""
    wall_start = time.perf_counter()
    seed = config.seed if seed is None else seed

    opened = []

    def _open(path):
        if path is None:
            return None
        fh = open(path, "w", encoding="utf-8", newline="")
        opened.append(fh)
        return fh

    thresholds = gc.get_threshold()
    if 0 < thresholds[0] < YOUNG_GC_THRESHOLD:
        gc.set_threshold(YOUNG_GC_THRESHOLD, *thresholds[1:])
    try:
        trace_fh = _open(trace_out)
        tick_writer = CsvWriter(_open(out), TICK_HEADER, TICK_ROW)
        delivery_writer = CsvWriter(_open(deliveries_out), DELIVERY_HEADER,
                                    DELIVERY_ROW)

        sim = NetworkSim(seed, trace=trace_fh)
        for link in config.links:
            sim.add_link(link)

        clients = sorted(config.clients, key=lambda c: c.client_id)
        client_ids = [c.client_id for c in clients]
        bots: dict[int, _Bot] = {}
        pms: dict[int, PlayerManager] = {}
        delay_all = RunningStats()
        delay_critical = RunningStats()
        tick_rows: list = []

        for client_spec in clients:
            cid = client_spec.client_id
            bot = _Bot(client_spec, lambda: sim.now)
            pm_config = _build_pm_config(config, client_spec)
            pm = PlayerManager(pm_config, bot,
                               lambda link_id, data, c=cid: sim.send(link_id, c, data))

            def on_delivery(now, sender, entity, seq, delay, critical, dest=cid):
                delay_all.add(float(delay))
                if critical:
                    delay_critical.add(float(delay))
                delivery_writer.row(now, sender, dest, entity, seq, delay,
                                    1 if critical else 0)

            pm.on_delivery_metric = on_delivery
            sim.register_handler(cid, pm.on_network_message)
            bots[cid] = bot
            pms[cid] = pm

        # One sampling plan per entity, resolved before the first tick: its
        # truth function, its owner and the owner's manager, and every other
        # client with its bound displayed_position.
        plans = []
        fire_cursor = {}
        for client_spec in clients:
            owner = client_spec.client_id
            for spec in client_spec.entities:
                viewers = [(viewer, pms[viewer].displayed_position)
                           for viewer in client_ids if viewer != owner]
                plans.append((spec.entity_id, spec.motion.position, owner,
                              pms[owner], viewers))
                fire_cursor[(owner, spec.entity_id)] = 0

        caps = {c.client_id: PeerCapabilities(c.client_id,
                                              c.direct_address_known,
                                              c.has_gps_clock)
                for c in clients}

        def session_start(now):
            for cid in client_ids:
                peer_caps = [caps[p] for p in client_ids if p != cid]
                pms[cid].start_session(peer_caps, now)

        sim.schedule_call(0, session_start)

        for at, link_id, what, value in config.link_events:
            def apply_change(now, link_id=link_id, what=what, value=value):
                if what == "base_delay_ms":
                    sim.set_link_delay(link_id, value, now)
                else:
                    sim.links[link_id].available = value
                    for pm in pms.values():
                        pm.on_link_change(link_id, value, now)
            sim.schedule_call(at, apply_change)

        divergence = RunningStats()

        def make_tick(cid):
            client_spec = next(c for c in clients if c.client_id == cid)

            def do_tick(now):
                pm = pms[cid]
                pm.tick(now)
                for spec in client_spec.entities:
                    cursor = fire_cursor[(cid, spec.entity_id)]
                    events = spec.events
                    while cursor < len(events) and events[cursor][0] <= now:
                        _, kind = events[cursor]
                        pm.send_event(spec.entity_id, kind, b"\x00" * 8, now)
                        cursor += 1
                    fire_cursor[(cid, spec.entity_id)] = cursor
            return do_tick

        tick_row = tick_writer.row
        add_divergence = divergence.add

        def sample(now):
            for entity_id, position, owner, owner_pm, viewers in plans:
                tx, ty = position(now)
                mode = owner_pm.mode_of(entity_id).value
                for viewer, displayed_position in viewers:
                    shown = displayed_position(entity_id, now)
                    if shown is None:
                        continue
                    sx, sy = shown
                    div = dist(tx, ty, sx, sy)
                    add_divergence(div)
                    route = owner_pm.route_to(viewer)
                    route = -1 if route is None else route
                    row = (now, entity_id, owner, viewer, tx, ty, sx, sy, div,
                           mode, route)
                    tick_row(*row)
                    if keep_rows:
                        tick_rows.append(row)
            _check_invariants(now)

        def _check_invariants(now):
            for cid in client_ids:
                pm = pms[cid]
                for peer, decision in pm.routes.items():
                    link = pm.links_by_id[decision.chosen_link]
                    if link.available:
                        continue
                    if any(l.available for l in pm.peer_links[peer]):
                        raise InvariantViolation(
                            f"client {cid} holds a dead route to {peer} at {now}")

        do_ticks = {cid: make_tick(cid) for cid in client_ids}
        for t in range(0, config.duration_ms + 1, config.tick_ms):
            for cid in client_ids:
                sim.schedule_call(t, do_ticks[cid])
            sim.schedule_call(t, sample)

        sim.run_until(config.duration_ms)

        in_flight = sim.pending_deliveries
        if sim.counters.sent != sim.counters.delivered + sim.counters.dropped + in_flight:
            raise InvariantViolation("payload accounting mismatch")

        # event display-time rows need both playout times
        event_rows = []
        diff_stats = RunningStats()
        for client_spec in clients:
            owner = client_spec.client_id
            for spec in client_spec.entities:
                keys = sorted(k for k in bots[owner].event_playouts
                              if k[0] == owner and k[1] == spec.entity_id)
                for key in keys:
                    local = bots[owner].event_playouts[key]
                    for viewer in client_ids:
                        if viewer == owner:
                            continue
                        remote = bots[viewer].event_playouts.get(key)
                        if remote is None:
                            continue
                        diff = remote - local
                        diff_stats.add(float(abs(diff)))
                        event_rows.append((key[2], owner, viewer, local, remote, diff))

        events_fh = _open(events_out)
        event_writer = CsvWriter(events_fh, EVENT_HEADER, EVENT_ROW)
        for row in event_rows:
            event_writer.row(*row)

        processing = sorted(ns for pm in pms.values() for ns in pm.processing_ns)
        data_received = sum(pm.counters.data_received for pm in pms.values())
        late = sum(pm.counters.late_messages for pm in pms.values())
        switches = sum(len(pm.switch_log) for pm in pms.values())
        failovers = sum(1 for pm in pms.values() for s in pm.switch_log if s[4])

        summary = {
            "seed": seed,
            "clients": len(clients),
            "duration_ms": config.duration_ms,
            "messages_sent": sim.counters.sent,
            "messages_delivered": sim.counters.delivered,
            "messages_dropped_network": sim.counters.dropped,
            "messages_in_flight_at_end": in_flight,
            "messages_dropped_queue": sum(pm.counters.queue_drops for pm in pms.values()),
            "data_messages_received": data_received,
            "decode_errors": sum(pm.counters.decode_errors for pm in pms.values()),
            "state_sends": sum(pm.counters.sends for pm in pms.values()),
            "sends_in_region": sum(pm.counters.sends_in_region for pm in pms.values()),
            "events_sent": sum(pm.counters.events_sent for pm in pms.values()),
            "late_messages": late,
            "late_fraction": (late / data_received) if data_received else 0.0,
            "rollbacks": sum(pm.counters.rollbacks for pm in pms.values()),
            "duplicates_dropped": sum(pm.counters.duplicates for pm in pms.values()),
            "dropped_beyond_window": sum(pm.counters.beyond_window for pm in pms.values()),
            "clock_anomalies": sum(pm.counters.clock_anomalies for pm in pms.values()),
            "route_switches": switches,
            "route_failovers": failovers,
            "divergence_rows": divergence.count,
            "mean_divergence_m": divergence.mean if divergence.count else 0.0,
            "max_divergence_m": divergence.max if divergence.count else 0.0,
            "event_rows": len(event_rows),
            "mean_abs_display_diff_ms": diff_stats.mean if diff_stats.count else 0.0,
            "max_abs_display_diff_ms": diff_stats.max if diff_stats.count else 0.0,
            "mean_delay_ms": delay_all.mean if delay_all.count else 0.0,
            "mean_delay_critical_ms": delay_critical.mean if delay_critical.count else 0.0,
            "processing_count": len(processing),
            "processing_us_p50": percentile(processing, 50) / 1000.0 if processing else 0.0,
            "processing_us_p99": percentile(processing, 99) / 1000.0 if processing else 0.0,
            "processing_us_mean": (sum(processing) / len(processing) / 1000.0
                                   if processing else 0.0),
            "wall_time_s": time.perf_counter() - wall_start,
        }

        if summary_out is not None:
            with open(summary_out, "w", encoding="utf-8", newline="") as fh:
                fh.write(format_summary(summary))

        return RunResult(summary=summary, pms=pms, bots=bots, sim=sim,
                         event_rows=event_rows, tick_rows=tick_rows)
    finally:
        gc.set_threshold(*thresholds)
        for fh in opened:
            fh.close()
