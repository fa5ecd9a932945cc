"""Scenario runner: drives the network simulator, one player manager per
client, and scripted bot games; emits per-tick divergence rows, per-event
display-time rows, optional per-delivery rows, a trace, and a summary. The
rows go only to their files: a run returns its summary and its managers.
An entity's ground truth is its motion's state(t) position, and a tick
row's route is the owner manager's route to the viewer.

Sampling is one flat pass over row plans that session start resolves
once every manager holds its peer records: one per (entity, viewer), with
the row's fixed ",entity,owner,viewer," text and the owner's live peer
record of the viewer, whose route each sample reads. A sample renders
tick_ms once, the truth columns once per entity and the shown columns once
per shared point, and each row is one concatenation of those parts.

Each client's network handler hands a frame to its manager and then
records the delivery the manager returns: the delivery row and the delay
statistics are made after the call, outside the manager's timed span. The
summary's processing percentiles are read from the managers'
processing_ns arrays (8 bytes a frame): after the run each manager's
timings are replaced by a sorted array, one manager at a time, and the
percentiles bisect across them, so no run-wide copy is built. Every count
is summed from the managers' counters under its PmCounters field name.

Each client's tick fires its entities' scripted events. A run walks each
entity's event series with one merged iterator (scenario.walk_events),
built per run, so the same config runs again to the same bytes; an event
is made when the walk reaches it, never before the run.

The event rows need every event's first playout time at its owner and at
each viewer, so each bot records them during the run in one flat record per
(sender, entity) stream: a run-wide table, shared by every bot, gives each
seq a slot in the order the seqs are first played out anywhere, and each bot
holds one array('q') of first playout times indexed by slot (-1 where it has
none). A recorded (event, viewer) costs 8 bytes and a distinct seq one table
entry, so the record grows with the number of distinct seqs played out,
never with their values: a corrupt seq near 2**32 takes one slot.

Everything is deterministic given the scenario seed: all randomness flows
through the simulator's generator, bots are closed-form functions of virtual
time, and wall-clock measurements are recorded but never fed back into the
simulation.
"""

import gc
import time
from array import array
from dataclasses import dataclass, fields

from gamesync.deadreckoning import EntityKinematics, dist
from gamesync.metrics import (DELIVERY_HEADER, DELIVERY_ROW, EVENT_HEADER,
                              EVENT_ROW, TICK_HEADER, TICK_ROW, TICK_SHOWN,
                              TICK_TRUTH, CsvWriter, RunningStats,
                              format_summary, merged_percentiles)
from gamesync.netsim import InvariantViolation, NetworkSim
from gamesync.overlay import PeerCapabilities
from gamesync.player import (GameCallbacks, PlayerManager,
                             PlayerManagerConfig, PmCounters)
from gamesync.regions import RegionSet
from gamesync.scenario import ScenarioConfig, walk_events

# Young-generation threshold of the cyclic collector during a run. A run keeps
# a sliding window of records alive (rollback log, playout buffers, the
# simulator's heap) and frees the oldest as it adds the newest, so the
# collector's allocation count climbs slowly while thousands of young records
# pile up, and each young collection walks them all. No collection during a
# run of the shipped scenarios or the perfbench workloads frees an object, so
# they are pure cost: CPython's default of 700 makes 119 young collections in
# a run of perfbench's six-tank skirmish, this threshold makes 4.
YOUNG_GC_THRESHOLD = 20_000


# Slots a bot's first-playout array grows by at a time. Growth is amortized
# over a block of new seqs, and an array overshoots its stream's slot table
# by less than one block.
PLAYOUT_BLOCK = 256
_UNPLAYED = array("q", [-1]) * PLAYOUT_BLOCK


class _Bot(GameCallbacks):
    """Scripted game: closed-form motion (the divergence ground truth) and
    the first playout time of every event (for display-time differences).
    States, undos and mode changes keep the no-op default callbacks.

    event_streams maps each (sender, entity) stream the bot has played out
    an event of to (slots, times): slots is the run's shared seq -> slot
    table of the stream, and times[slot] is this bot's first playout time
    of that seq, -1 if it has none. A seq takes the next slot the first
    time any bot plays it out."""

    def __init__(self, client_spec, now_fn, seq_slots):
        self.client_id = client_spec.client_id
        self.entities = {e.entity_id: e for e in client_spec.entities}
        self._now_fn = now_fn
        self._seq_slots = seq_slots      # stream -> {seq: slot}, run-wide
        self.event_streams: dict[tuple, tuple[dict, array]] = {}

    def query_local_state(self, entity_id):
        t = self._now_fn()
        pos, vel = self.entities[entity_id].motion.state(t)
        return EntityKinematics(pos, vel, t)

    def apply_event(self, msg):
        # A rollback replays events already played out; only the first
        # playout reads the clock.
        stream = msg[:2]    # (sender_id, entity_id)
        entry = self.event_streams.get(stream)
        if entry is None:
            entry = self.event_streams[stream] = (
                self._seq_slots.setdefault(stream, {}), array("q"))
        slots, times = entry
        seq = msg[2]
        slot = slots.get(seq)
        if slot is None:
            slot = slots[seq] = len(slots)
        try:
            if times[slot] >= 0:
                return
        except IndexError:
            while slot >= len(times):    # grow through the block holding slot
                times.extend(_UNPLAYED)
        times[slot] = self._now_fn()


def _event_rows(clients, bots):
    """Yield the event rows (seq, owner, viewer, owner's playout, viewer's
    playout, their difference) of every event its owner played out: for
    each owner stream in client and entity order, its seqs in order, and for
    each seq the other clients that played it out, in client order."""
    client_ids = [c.client_id for c in clients]
    for client_spec in clients:
        owner = client_spec.client_id
        for spec in client_spec.entities:
            stream = (owner, spec.entity_id)
            entry = bots[owner].event_streams.get(stream)
            if entry is None:
                continue
            slots, local_times = entry
            viewer_times = [(viewer, bots[viewer].event_streams[stream][1])
                            for viewer in client_ids if viewer != owner
                            and stream in bots[viewer].event_streams]
            for seq, slot in sorted(slots.items()):
                if slot >= len(local_times) or local_times[slot] < 0:
                    continue
                local = local_times[slot]
                for viewer, times in viewer_times:
                    if slot < len(times) and times[slot] >= 0:
                        remote = times[slot]
                        yield seq, owner, viewer, local, remote, remote - local


@dataclass
class RunResult:
    """A finished run: its summary and its player managers by client id.
    The rows go only to their files."""
    summary: dict
    pms: dict


def run(config: ScenarioConfig, out=None, events_out=None, deliveries_out=None,
        trace_out=None, summary_out=None, seed=None) -> RunResult:
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
        seq_slots = {}       # (sender, entity) -> {seq: slot}, for every bot
        delay_all = RunningStats()
        delay_critical = RunningStats()

        # The run-wide tables, built once and shared by every manager along
        # with the config's own policies and toggles, which nothing mutates.
        entity_class, entity_owner = {}, {}
        for client_spec in clients:
            for spec in client_spec.entities:
                entity_class[spec.entity_id] = spec.class_id
                entity_owner[spec.entity_id] = client_spec.client_id
        regions = RegionSet()
        for region in config.regions:
            regions.add(region)

        for client_spec in clients:
            cid = client_spec.client_id
            bot = _Bot(client_spec, lambda: sim.now, seq_slots)
            pm_config = PlayerManagerConfig(
                client_id=cid,
                links=[l for l in config.links if cid in l.endpoints],
                local_entities=tuple(spec.entity_id
                                     for spec in client_spec.entities),
                entity_class=entity_class, entity_owner=entity_owner,
                regions=regions, clock_offset_ms=client_spec.clock_offset_ms,
                policies=config.policies, toggles=config.toggles)
            pm = PlayerManager(pm_config, bot,
                               lambda link_id, data, c=cid: sim.send(link_id, c, data))

            def receive(data, now, link_id, dest=cid,
                        on_network_message=pm.on_network_message):
                """Hand a frame to the manager, then record its delivery:
                the row and the delay statistics stay outside the manager's
                timed span."""
                delivery = on_network_message(data, now, link_id)
                if delivery is not None:
                    now, sender, entity, seq, delay, critical = delivery
                    delay_all.add(float(delay))
                    if critical:
                        delay_critical.add(float(delay))
                    delivery_writer.row(now, sender, dest, entity, seq, delay,
                                        1 if critical else 0)

            sim.register_handler(cid, receive)
            bots[cid] = bot
            pms[cid] = pm

        caps = {c.client_id: PeerCapabilities(c.client_id,
                                              c.direct_address_known)
                for c in clients}

        # Links down in the simulator, and direct links a manager marked
        # unreachable at session start: the only links a route can be dead
        # on (see _check_invariants).
        down_links = {l.link_id for l in config.links if not l.available}
        unreachable = set()

        # The sampling plans and each route's text (see sample), resolved
        # at session start, when every manager holds the peer records its
        # routes live in. A route is a link id, or -1 with no link.
        write_ticks = tick_writer.write
        writing = write_ticks is not None
        plans = []
        route_text = {}

        def session_start(now):
            for cid in client_ids:
                peer_caps = [caps[p] for p in client_ids if p != cid]
                pms[cid].start_session(peer_caps, now)
                unreachable.update(pms[cid].unreachable)
            for client_spec in clients:
                owner = client_spec.client_id
                owner_pm = pms[owner]
                for spec in client_spec.entities:
                    entity_id = spec.entity_id
                    rows = tuple(
                        (index, f",{entity_id},{owner},{viewer},"
                         if writing else None, owner_pm.peers[viewer])
                        for index, viewer in enumerate(client_ids)
                        if viewer != owner)
                    plans.append((entity_id, spec.motion.state,
                                  owner_pm.mode_of, rows))
            if writing:
                for route in [-1] + [link.link_id for link in config.links]:
                    route_text[route] = f"{route}\n"

        # Each link event is a call at its time. Calls due at the same time
        # run in the order they are scheduled, so every delay change is
        # scheduled first: it applies to every send of its ms, session
        # start's pings and the frames a same-time link change flushes
        # included. The parser keeps same-time changes to one link in
        # document order, and the last one holds.
        for at, link_id, what, value in config.link_events:
            def change_delay(now, link_id=link_id, value=value):
                sim.set_link_delay(link_id, value)
            if what == "base_delay_ms":
                sim.schedule_call(at, change_delay)

        sim.schedule_call(0, session_start)

        for at, link_id, what, value in config.link_events:
            def apply_change(now, link_id=link_id, value=value):
                sim.links[link_id].available = value
                if value:
                    down_links.discard(link_id)
                else:
                    down_links.add(link_id)
                for pm in pms.values():
                    pm.on_link_change(link_id, value, now)
            if what == "available":
                sim.schedule_call(at, apply_change)

        divergence = RunningStats()

        # Each tick and sample schedules its own next run, so the heap holds
        # one pending call of each at a time, not the whole run's.
        tick_ms, duration_ms = config.tick_ms, config.duration_ms

        def make_tick(cid):
            client_spec = next(c for c in clients if c.client_id == cid)
            # [entity, its event walk, the walk's next event or None] for
            # each entity with events
            walks = []
            for spec in client_spec.entities:
                if spec.events:
                    walk = walk_events(spec.events)
                    walks.append([spec.entity_id, walk, next(walk, None)])

            def do_tick(now):
                if now + tick_ms <= duration_ms:
                    sim.schedule_call(now + tick_ms, do_tick)
                pm = pms[cid]
                pm.tick(now)
                for entry in walks:
                    entity_id, walk, due = entry
                    while due is not None and due[0] <= now:
                        pm.send_event(entity_id, due[1], b"\x00" * 8, now)
                        due = next(walk, None)
                    entry[2] = due
            return do_tick

        viewer_pms = [pms[cid] for cid in client_ids]

        def sample(now):
            """Add every (entity, viewer) divergence to the run's statistics
            in row order, and write the tick's rows in one batch before
            checking the invariants.

            One flat pass over the plans: for each entity in client and
            entity order, its motion's state function (the truth), its
            owner's mode_of and one row plan per other client (its viewers,
            in client order). A row plan holds the viewer's index in
            viewer_pms, the row's fixed ",entity,owner,viewer," text (None
            without a tick file) and the owner's live peer record of the
            viewer, so the route is read as peer.route, never from a copy.

            Each viewer's displays come from one displayed_positions pass.
            A sample renders tick_ms once, the truth columns once per
            entity, and the shown, divergence and mode columns once per
            point that several viewers show (viewers past their blend that
            hold the same update), whose divergence is also computed once;
            each row is then one concatenation of those parts. Only points
            with both coordinates nonzero are shared, because
            0.0 == -0.0 but their reprs differ; an entity with one viewer
            keeps no table of points. Nothing is formatted without a tick
            file."""
            if now + tick_ms <= duration_ms:
                sim.schedule_call(now + tick_ms, sample)
            shown_by = [pm.displayed_positions(now) for pm in viewer_pms]
            lines = []
            append = lines.append
            count, total = divergence.count, divergence.total
            maximum = divergence.maximum
            if writing:
                when = f"{now}"
            for entity_id, state, mode_of, rows in plans:
                tx, ty = state(now)[0]
                if writing:
                    truth = TICK_TRUTH % (tx, ty)
                    mode = mode_of(entity_id).value
                points = {} if len(rows) > 1 else None
                for viewer, pair, peer in rows:
                    shown = shown_by[viewer].get(entity_id)
                    if shown is None:
                        continue
                    sx, sy = shown
                    if points is not None and sx and sy:
                        point = points.get(shown)
                        if point is None:
                            div = dist(tx, ty, sx, sy)
                            part = (TICK_SHOWN % (sx, sy, div, mode)
                                    if writing else None)
                            points[shown] = div, part
                        else:
                            div, part = point
                    else:
                        div = dist(tx, ty, sx, sy)
                        if writing:
                            part = TICK_SHOWN % (sx, sy, div, mode)
                    count += 1
                    total += div
                    if maximum is None or div > maximum:
                        maximum = div
                    if writing:
                        append(f"{when}{pair}{truth}{part}"
                               f"{route_text[peer.route]}")
            divergence.count, divergence.total = count, total
            divergence.maximum = maximum
            if lines:
                write_ticks("".join(lines))
            _check_invariants(now)

        def _check_invariants(now):
            """No route sits on a down link while another link to its peer
            is up. A route can be dead only on a link that is down in its
            manager's copy, which is down in the simulator or unreachable,
            so only routes on those links are visited; the first dead one in
            (client, peer) order is reported."""
            dead = []
            for link_id in down_links | unreachable:
                for cid in sim.links[link_id].endpoints:
                    pm = pms[cid]
                    link = pm.links_by_id[link_id]
                    peer_id = link.other_endpoint(cid)
                    peer = pm.peers[peer_id]
                    if (peer.route == link_id and not link.available
                            and any(l.available for l in peer.links)):
                        dead.append((cid, peer_id))
            if dead:
                cid, peer = min(dead)
                raise InvariantViolation(
                    f"client {cid} holds a dead route to {peer} at {now}")

        for cid in client_ids:
            sim.schedule_call(0, make_tick(cid))
        sim.schedule_call(0, sample)

        sim.run_until(duration_ms)

        in_flight = sim.pending_deliveries
        if sim.counters.sent != sim.counters.delivered + sim.counters.dropped + in_flight:
            raise InvariantViolation("payload accounting mismatch")

        # Event display-time rows need both playout times, so they are
        # computed after the run and written as they are computed.
        event_writer = CsvWriter(_open(events_out), EVENT_HEADER, EVENT_ROW)
        diff_stats = RunningStats()
        for row in _event_rows(clients, bots):
            diff_stats.add(float(abs(row[5])))
            event_writer.row(*row)

        # Each manager's timings become a sorted array, one manager at a
        # time: no run-wide copy (see merged_percentiles).
        for pm in pms.values():
            pm.processing_ns = array("q", sorted(pm.processing_ns))
        processing = [pm.processing_ns for pm in pms.values()]
        processing_count = sum(map(len, processing))
        p50, p99 = merged_percentiles(processing, (50, 99))
        counts = {f.name: sum(getattr(pm.counters, f.name)
                              for pm in pms.values())
                  for f in fields(PmCounters)}
        received = counts["data_messages_received"]

        summary = {
            "seed": seed,
            "clients": len(clients),
            "duration_ms": config.duration_ms,
            "messages_sent": sim.counters.sent,
            "messages_delivered": sim.counters.delivered,
            "messages_dropped_network": sim.counters.dropped,
            "messages_in_flight_at_end": in_flight,
            **counts,
            "late_fraction": (counts["late_messages"] / received
                              if received else 0.0),
            "divergence_rows": divergence.count,
            "mean_divergence_m": divergence.mean,
            "max_divergence_m": divergence.max,
            "event_rows": diff_stats.count,
            "mean_abs_display_diff_ms": diff_stats.mean,
            "max_abs_display_diff_ms": diff_stats.max,
            "mean_delay_ms": delay_all.mean,
            "mean_delay_critical_ms": delay_critical.mean,
            "processing_count": processing_count,
            "processing_us_p50": p50 / 1000.0 if processing_count else 0.0,
            "processing_us_p99": p99 / 1000.0 if processing_count else 0.0,
            "processing_us_mean": (sum(map(sum, processing)) / processing_count
                                   / 1000.0 if processing_count else 0.0),
            "wall_time_s": time.perf_counter() - wall_start,
        }

        if summary_out is not None:
            with open(summary_out, "w", encoding="utf-8", newline="") as fh:
                fh.write(format_summary(summary))

        return RunResult(summary=summary, pms=pms)
    finally:
        gc.set_threshold(*thresholds)
        for fh in opened:
            fh.close()
