"""Per-client composite wiring every manager into the reception and
transmission pipelines.

Reception runs decode -> delay estimation -> critical area tracking ->
playout buffering -> rollback ordering -> prediction/convergence -> game
callbacks. A data frame's consistency mode is evaluated once, after the
frame's position is recorded: that one mode scales the playout deadline and
becomes the entity's noted mode. Every state update, fresh or replayed by a
rollback, reaches the game through one apply path as the displayed position
at the playout time. The stages carry no instrumentation of their own;
`processing_ns` times each received frame as a whole.

Transmission runs per tick: dead-reckoning gate -> timestamping -> critical
flag -> route selection -> encode -> network. Each player manager is
single-threaded; distinct managers share no mutable state and talk only
through the network layer.

The Medium's settings are defined here once: a PolicySet (a ClassPolicy per
object class, which is that class's dead-reckoning policy plus its local
lag, and the run-wide scales, intervals and dwells) and Toggles (which
pipeline stages run). A PlayerManagerConfig adds what differs per client
and the run-wide entity and region tables; every client of a run shares one
PolicySet and one Toggles, and the manager reads them live.
"""

import time
from collections import deque
from dataclasses import dataclass, field, replace

from gamesync import rollback as rb
from gamesync.clock import (DEFAULT_ALPHA, DelaySample, LatencyEstimator,
                            VirtualClock, delay_from_timestamp, rtt_probe)
# converge is no longer called here: displayed_at is the display rule it
# delegates to. The name stays importable from this module, where
# perfbench's traced runs wrap it.
from gamesync.deadreckoning import (DEFAULT_HEARTBEAT_MS, DeadReckoningPolicy,
                                    EntityKinematics, converge, displayed_at,
                                    should_send)
from gamesync.locallag import (DEFAULT_CLASS, DEFAULT_CRITICAL_SCALE,
                               LagPolicy, PlayoutBuffer)
from gamesync.overlay import (LinkKind, LinkSpec, NoAvailableLink,
                              PeerCapabilities, RouteDecision, best_link,
                              default_route, select_route)
from gamesync.pdu import (DecodeError, EventMessage, PingMessage, PongMessage,
                          StateUpdate, decode, encode)
from gamesync.regions import (EXIT_HYSTERESIS_MS, ConsistencyMode,
                              ModeTracker, RegionSet)

NORMAL = ConsistencyMode.NORMAL
STRONG = ConsistencyMode.STRONG

QUEUE_LIMIT_MS = 1000    # frames queued longer than this are dropped


class ConfigInvalid(Exception):
    pass


class GameCallbacks:
    """Game-facing contract. Override what the game needs; the undo hook
    receives every message a rollback directive reverts (the game keeps its
    own inverse records).

    The messages and kinematics handed over are immutable NamedTuples:
    equality is field-wise, as for tuples, and a game may keep them as
    they are without copying."""

    def apply_remote_state(self, entity_id: int, kin: EntityKinematics) -> None:
        """kin is the entity's displayed position at the playout time, its
        wire velocity, and that time; fresh updates and rollback replays
        alike."""

    def apply_event(self, msg: EventMessage) -> None:
        pass

    def undo_event(self, msg) -> None:
        pass

    def query_local_state(self, entity_id: int) -> EntityKinematics:
        raise NotImplementedError

    def notify_mode(self, entity_id: int, mode: ConsistencyMode) -> None:
        pass


@dataclass(frozen=True)
class ClassPolicy(DeadReckoningPolicy):
    """An object class's dead-reckoning policy plus its local lag."""

    lag_ms: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.lag_ms < 0:
            raise ValueError("lag_ms must be >= 0")


@dataclass
class PolicySet:
    default: ClassPolicy = field(default_factory=ClassPolicy)
    classes: dict = field(default_factory=dict)   # class id -> ClassPolicy
    critical_threshold_scale: float = 0.25
    critical_lag_scale: float = DEFAULT_CRITICAL_SCALE
    heartbeat_ms: int = DEFAULT_HEARTBEAT_MS
    ewma_alpha: float = DEFAULT_ALPHA
    exit_hysteresis_ms: int = EXIT_HYSTERESIS_MS
    route_hysteresis_ms: int = 500
    idle_ping_ms: int = 1000
    critical_proximity_radius_m: float | None = None

    def for_class(self, class_id: str) -> ClassPolicy:
        return self.classes.get(class_id, self.default)


@dataclass
class Toggles:
    overlay: bool = False
    rollback_scope: str = "all"          # "all" | "events"
    sender_side_lag: bool = True
    receiver_side_lag: bool = True
    critical_tightening: bool = True


@dataclass
class PlayerManagerConfig:
    """One client's view of a run: its own id, links, entities and clock
    offset, the run-wide entity and region tables, and the policies and
    toggles every client of the run shares. The manager takes the EWMA
    alpha, the lag table and the exit hysteresis once, at construction, and
    reads every other setting live."""
    client_id: int
    links: list = field(default_factory=list)
    local_entities: tuple = ()
    entity_class: dict = field(default_factory=dict)
    entity_owner: dict = field(default_factory=dict)
    regions: RegionSet = field(default_factory=RegionSet)
    clock_offset_ms: int = 0
    policies: PolicySet = field(default_factory=PolicySet)
    toggles: Toggles = field(default_factory=Toggles)


@dataclass
class PmCounters:
    sends: int = 0
    sends_in_region: int = 0
    events_sent: int = 0
    data_received: int = 0
    decode_errors: int = 0
    late_messages: int = 0
    rollbacks: int = 0
    duplicates: int = 0
    beyond_window: int = 0
    clock_anomalies: int = 0
    queue_drops: int = 0


@dataclass(slots=True)
class _RemoteView:
    corrected: EntityKinematics
    epoch_start: int
    snapshot: tuple | None    # displayed pos when the epoch began; None snaps
    window: int     # the entity's convergence window when the epoch began


class _DirectiveAdapter:
    """Routes replayed state updates through the fresh ones' apply path."""

    def __init__(self, pm: "PlayerManager", now: int):
        self._pm = pm
        self._now = now

    def undo_event(self, msg):
        self._pm.callbacks.undo_event(msg)

    def apply_event(self, msg):
        self._pm.callbacks.apply_event(msg)

    def apply_remote_state(self, entity_id, kin):
        self._pm._apply_state(entity_id, kin, self._now)


class PlayerManager:
    def __init__(self, config: PlayerManagerConfig, callbacks: GameCallbacks,
                 send_fn):
        """send_fn(link_id, payload) hands a frame to the network layer."""
        self.config = config
        self.callbacks = callbacks
        self._send_fn = send_fn
        pol = config.policies
        self.clock = VirtualClock(config.clock_offset_ms)
        self.estimator = LatencyEstimator(pol.ewma_alpha)
        self.buffer = PlayoutBuffer(LagPolicy(
            base_lag_ms={name: cp.lag_ms for name, cp in pol.classes.items()},
            critical_scale=pol.critical_lag_scale,
            default_lag_ms=pol.default.lag_ms))
        self.log = rb.DeliveryLog()
        self.modes = ModeTracker(config.regions, pol.exit_hysteresis_ms)
        self.counters = PmCounters()
        self.processing_ns: list[int] = []
        self.switch_log: list[tuple] = []   # (now, peer, old, new, failover)

        self.links_by_id: dict[int, LinkSpec] = {}
        for spec in config.links:
            if config.client_id not in spec.endpoints:
                raise ConfigInvalid(
                    f"link {spec.link_id} does not touch client {config.client_id}")
            self.links_by_id[spec.link_id] = replace(spec)

        self.peers: list[int] = []
        self.peer_links: dict[int, list[LinkSpec]] = {}
        self.routes: dict[int, RouteDecision] = {}
        self._pending: dict[int, deque] = {}
        self._peer_critical: dict[int, bool] = {}
        self._peer_entities: dict[int, tuple] = {}   # peer -> its entities
        self._views: dict[int, _RemoteView] = {}
        self._last_sent: dict[int, EntityKinematics] = {}
        self._seqs: dict[int, int] = {}
        self._entity_positions: dict[int, tuple] = {}
        self._entity_modes: dict[int, ConsistencyMode] = {}
        self._outstanding_pings: dict[int, tuple] = {}
        self._ping_counter = 0
        self._last_activity: dict[int, int] = {}
        self._last_ping: dict[int, int] = {}

        # observability hooks (wired by the scenario runner)
        self.on_delivery_metric = None    # fn(now, sender, entity, seq, delay, critical)

    # -- session ---------------------------------------------------------

    def start_session(self, peer_capabilities: list[PeerCapabilities],
                      now: int = 0) -> None:
        """Collect peer info, mark unreachable direct links, choose default
        routes, zero sequence counters, and fire the initial ping round."""
        if self.config.policies.heartbeat_ms <= 0:
            raise ConfigInvalid("heartbeat_ms must be > 0")
        now = self.clock.read(now)
        self.peers = sorted(c.peer_id for c in peer_capabilities)
        caps = {c.peer_id: c for c in peer_capabilities}
        self._peer_entities = {
            peer: tuple(e for e, owner in self.config.entity_owner.items()
                        if owner == peer)
            for peer in self.peers}
        self._seqs.clear()
        self.estimator.reset()
        for peer in self.peers:
            links = [l for l in self.links_by_id.values()
                     if l.connects(self.config.client_id, peer)]
            if not caps[peer].direct_address_known:
                for l in links:
                    if l.kind is LinkKind.DIRECT:
                        l.available = False
            links.sort(key=lambda l: l.link_id)
            self.peer_links[peer] = links
            self._pending[peer] = deque()
            if links:
                self.routes[peer] = RouteDecision(default_route(links, {}),
                                                  last_switch_at=now)
            self._send_pings(peer, now)

    # -- reception pipeline ------------------------------------------------

    def on_network_message(self, data: bytes, now: int, link_id: int) -> None:
        t0 = time.perf_counter_ns()
        try:
            self._receive(data, now, link_id)
        finally:
            self.processing_ns.append(time.perf_counter_ns() - t0)

    def _receive(self, data: bytes, now: int, link_id: int) -> None:
        now = self.clock.read(now)
        try:
            msg = decode(data)
        except DecodeError:
            self.counters.decode_errors += 1
            return

        if isinstance(msg, PingMessage):
            pong = PongMessage(self.config.client_id, msg.nonce, now,
                               msg.timestamp)
            link = self.links_by_id.get(link_id)
            if link is not None and link.available:
                self._send_fn(link_id, encode(pong))
            return
        if isinstance(msg, PongMessage):
            entry = self._outstanding_pings.pop(msg.nonce, None)
            if entry is None:
                return
            ping, ping_link = entry
            delay = rtt_probe(ping, msg, now)
            self._observe(msg.sender_id, ping_link, delay, now)
            return

        # data message (state update or event)
        self.counters.data_received += 1
        res = delay_from_timestamp(msg.timestamp, now)
        if res.clock_anomaly:
            self.counters.clock_anomalies += 1
        self._observe(msg.sender_id, link_id, res.delay_ms, now)
        if isinstance(msg, StateUpdate):
            self._peer_critical[msg.sender_id] = msg.critical
            self._entity_positions[msg.entity_id] = msg.pos
        if self.on_delivery_metric is not None:
            critical = isinstance(msg, StateUpdate) and msg.critical
            self.on_delivery_metric(now, msg.sender_id, msg.entity_id,
                                    msg.seq, res.delay_ms, critical)

        mode = self._frame_mode(msg, now)
        entry = None
        if self.config.toggles.receiver_side_lag:
            entry = self.buffer.enqueue(msg, self._class_of(msg.entity_id),
                                        mode, now)
        if entry is None:
            self._playout(msg, now)
        elif entry.late:
            self.counters.late_messages += 1
            self._playout(msg, now)

    def _frame_mode(self, msg, now: int) -> ConsistencyMode:
        """Evaluate a data frame's mode once, at the entity's recorded
        position (an event's entity may have none: normal, not noted), and
        note it. A critical update is strong whatever its region."""
        if not self.config.toggles.critical_tightening:
            return NORMAL
        pos = self._entity_positions.get(msg.entity_id)
        if pos is None:
            return NORMAL
        mode = self.modes.mode_for(msg.entity_id, pos,
                                   self._entity_positions, now)
        if isinstance(msg, StateUpdate) and msg.critical:
            mode = STRONG
        self._note_mode(msg.entity_id, mode)
        return mode

    def _playout(self, msg, now: int) -> None:
        """Rollback ordering, then prediction, then the game."""
        in_scope = (self.config.toggles.rollback_scope == "all"
                    or isinstance(msg, EventMessage))
        if in_scope:
            outcome = self.log.on_deliver(msg, now)
            if isinstance(outcome, rb.DropDuplicate):
                self.counters.duplicates += 1
                return
            if isinstance(outcome, rb.DropBeyondWindow):
                self.counters.beyond_window += 1
                return
            if isinstance(outcome, rb.RollbackDirective):
                self.counters.rollbacks += 1
                rb.apply_directive(_DirectiveAdapter(self, now), outcome)
                self.log.commit(outcome)
                return
        if isinstance(msg, StateUpdate):
            self._apply_state(msg.entity_id,
                              EntityKinematics(msg.pos, msg.vel, msg.timestamp),
                              now)
        else:
            self.callbacks.apply_event(msg)

    def _apply_state(self, entity_id: int, kin: EntityKinematics,
                     now: int) -> None:
        """Fold wire kinematics into the entity's view, then hand the game
        the displayed position at now. Fresh and replayed updates both come
        through here.

        An update starts a blend epoch unless it is older than the view's
        (it never regresses the view) or is the one the view holds (a
        rollback replaying it leaves the blend running). An epoch blends
        from a snapshot, the position displayed when it starts, and shows
        that snapshot at its start, so the game gets it. A zero convergence
        window snaps and keeps no snapshot. The position is evaluated for
        the game on its own only where there is no snapshot to hand over
        (the first update, one that starts no epoch, a zero window) or the
        clock is behind the update (the wire position shows)."""
        view = self._views.get(entity_id)
        shown = None
        if view is None:
            self._views[entity_id] = _RemoteView(
                kin, now, None, self._dr_policy(entity_id).convergence_ms)
        elif kin.at >= view.corrected.at and kin != view.corrected:
            window = self._dr_policy(entity_id).convergence_ms
            snapshot = None
            if window:
                snapshot = self.displayed_position(entity_id, now)
            self._views[entity_id] = _RemoteView(kin, now, snapshot, window)
            if now >= kin.at:
                shown = snapshot
        if shown is None:
            shown = self.displayed_position(entity_id, now)
        self.callbacks.apply_remote_state(
            entity_id, EntityKinematics(shown, kin.vel, now))

    def displayed_position(self, entity_id: int, now: int) -> tuple | None:
        """Current dead-reckoned/converging display position, or None if no
        update has been played out yet (see deadreckoning.displayed_at)."""
        view = self._views.get(entity_id)
        if view is None:
            return None
        return displayed_at(view.corrected, view.snapshot, view.epoch_start,
                            view.window, now)

    def displayed_positions(self, now: int) -> dict:
        """Every displayed_position at now in one pass, by entity id, for
        the entities that have had an update played out."""
        shown = {}
        for entity_id, view in self._views.items():
            shown[entity_id] = displayed_at(view.corrected, view.snapshot,
                                            view.epoch_start, view.window, now)
        return shown

    # -- transmission pipeline ---------------------------------------------

    def tick(self, now: int) -> None:
        """Release due playouts, evaluate the send gate per local entity,
        refresh idle pings, and flush any queued frames."""
        now = self.clock.read(now)
        for entry in self.buffer.release_due(now):
            self._playout(entry.msg, now)
        self._expire_pings(now)

        states = []
        for entity_id in self.config.local_entities:
            kin = self.callbacks.query_local_state(entity_id)
            self._entity_positions[entity_id] = kin.pos
            mode = NORMAL
            if self.config.toggles.critical_tightening:
                mode = self.modes.mode_for(entity_id, kin.pos,
                                           self._entity_positions, now)
            self._note_mode(entity_id, mode)
            states.append((entity_id, kin, mode))

        pol = self.config.policies
        for entity_id, kin, mode in states:
            policy = self._dr_policy(entity_id)
            scale = pol.critical_threshold_scale if mode is STRONG else 1.0
            if not should_send(kin, self._last_sent.get(entity_id), policy,
                               now, pol.heartbeat_ms, scale):
                continue
            seq = self._seqs.get(entity_id, 0) + 1
            self._seqs[entity_id] = seq
            msg = StateUpdate(self.config.client_id, entity_id, seq, now,
                              kin.pos, kin.vel, mode is STRONG)
            data = encode(msg)
            self.counters.sends += 1
            if self.config.regions.any_contains(kin.pos, self._entity_positions):
                self.counters.sends_in_region += 1
            for peer in self.peers:
                self._transmit(peer, data, now)
            self._last_sent[entity_id] = EntityKinematics(kin.pos, kin.vel, now)

        for peer in self.peers:
            idle = now - self._last_activity.get(peer, 0)
            since_ping = now - self._last_ping.get(peer, -pol.idle_ping_ms)
            if idle >= pol.idle_ping_ms and since_ping >= pol.idle_ping_ms:
                self._send_pings(peer, now)
            self._flush_pending(peer, now)

    def send_event(self, entity_id: int, kind, payload: bytes, now: int) -> EventMessage:
        """Send a game event to every peer; with sender-side lag the local
        playout is buffered to the same deadline remote playouts use."""
        now = self.clock.read(now)
        seq = self._seqs.get(entity_id, 0) + 1
        self._seqs[entity_id] = seq
        msg = EventMessage(self.config.client_id, entity_id, seq, now, kind,
                           payload)
        data = encode(msg)
        self.counters.events_sent += 1
        for peer in self.peers:
            self._transmit(peer, data, now)
        mode = self._entity_modes.get(entity_id, NORMAL)
        if self.config.toggles.sender_side_lag:
            entry = self.buffer.enqueue(msg, self._class_of(entity_id), mode, now)
            if entry.late:
                self._playout(msg, now)
        else:
            self._playout(msg, now)
        return msg

    def _transmit(self, peer: int, data: bytes, now: int) -> None:
        decision = self.routes.get(peer)
        if decision is None:
            return
        links = self.peer_links[peer]
        if self.config.toggles.overlay:
            try:
                new = select_route(peer, links, self._link_estimates(peer),
                                   self._critical_proximity(peer), decision,
                                   now,
                                   self.config.policies.route_hysteresis_ms)
            except NoAvailableLink:
                self._queue_frame(peer, data, now)
                return
            if new.chosen_link != decision.chosen_link:
                self.switch_log.append((now, peer, decision.chosen_link,
                                        new.chosen_link, False))
                self.routes[peer] = new
                decision = new
        chosen = self.links_by_id[decision.chosen_link]
        if not chosen.available:
            # failover: hysteresis only limits quality-driven switching
            decision = self._failover(peer, decision, now)
            if decision is None:
                self._queue_frame(peer, data, now)
                return
        self._flush_pending(peer, now)
        self._send_fn(decision.chosen_link, data)

    def on_link_change(self, link_id: int, available: bool, now: int) -> None:
        """Network-layer notification; fails over same-tick when the change
        downs a chosen link."""
        now = self.clock.read(now)
        link = self.links_by_id.get(link_id)
        if link is None:
            return
        link.available = available
        for peer in self.peers:
            links = self.peer_links[peer]
            if all(l.link_id != link_id for l in links):
                continue
            decision = self.routes.get(peer)
            if decision is None:
                continue
            if available:
                self._flush_pending(peer, now)
                continue
            if decision.chosen_link != link_id:
                continue
            self._failover(peer, decision, now)

    def _failover(self, peer: int, decision: RouteDecision,
                  now: int) -> RouteDecision | None:
        """Immediate reroute to the best available link, bypassing
        hysteresis. Returns None (route left as-is) when nothing is up."""
        alive = [l for l in self.peer_links[peer] if l.available]
        if not alive:
            return None
        best = best_link(alive, self._link_estimates(peer))
        self.switch_log.append((now, peer, decision.chosen_link,
                                best.link_id, True))
        new = replace(decision, chosen_link=best.link_id, last_switch_at=now)
        self.routes[peer] = new
        return new

    def _queue_frame(self, peer: int, data: bytes, now: int) -> None:
        self._pending[peer].append((data, now))

    def _flush_pending(self, peer: int, now: int) -> None:
        pending = self._pending.get(peer)
        if not pending:
            return
        while pending and now - pending[0][1] > QUEUE_LIMIT_MS:
            pending.popleft()
            self.counters.queue_drops += 1
        if not pending:
            return
        decision = self.routes.get(peer)
        if decision is None:
            return
        link = self.links_by_id[decision.chosen_link]
        if not link.available:
            decision = self._failover(peer, decision, now)
            if decision is None:
                return
        while pending:
            data, _ = pending.popleft()
            self._send_fn(decision.chosen_link, data)

    # -- helpers -----------------------------------------------------------

    def _critical_proximity(self, peer: int) -> bool:
        """True when the peer flags its updates critical while a local
        entity is strong, or when one of the peer's entities is within the
        proximity radius of a local one."""
        if not self.config.toggles.critical_tightening:
            return False
        if self._peer_critical.get(peer, False) and any(
                self._entity_modes.get(e) is STRONG
                for e in self.config.local_entities):
            return True
        radius = self.config.policies.critical_proximity_radius_m
        if radius is None:
            return False
        reach = radius * radius
        positions = self._entity_positions
        for mine in self.config.local_entities:
            my_pos = positions.get(mine)
            if my_pos is None:
                continue
            for other in self._peer_entities[peer]:
                pos = positions.get(other)
                if pos is None:
                    continue
                dx = my_pos[0] - pos[0]
                dy = my_pos[1] - pos[1]
                if dx * dx + dy * dy <= reach:
                    return True
        return False

    def _link_estimates(self, peer: int) -> dict:
        return {l.link_id: self.estimator.estimate((peer, l.link_id))
                for l in self.peer_links[peer]}

    def _observe(self, peer: int, link_id: int, delay: int, now: int) -> None:
        self.estimator.observe(DelaySample((peer, link_id), delay, now))
        self._last_activity[peer] = now

    def _send_pings(self, peer: int, now: int) -> None:
        for link in self.peer_links.get(peer, ()):
            if not link.available:
                continue
            self._ping_counter += 1
            nonce = (self.config.client_id << 32) | (self._ping_counter & 0xFFFFFFFF)
            ping = PingMessage(self.config.client_id, nonce, now)
            self._outstanding_pings[nonce] = (ping, link.link_id)
            self._send_fn(link.link_id, encode(ping))
        self._last_ping[peer] = now

    def _expire_pings(self, now: int) -> None:
        """Forget probes older than the history window: their pongs were
        lost. The dict is in send order, so the stale ones lead it.

        The log's history window therefore also bounds how long a probe
        waits for its pong: a pong whose round trip exceeds the window
        yields no RTT sample, and changing the window changes RTT probing
        too."""
        pings = self._outstanding_pings
        horizon = now - self.log.history_window_ms
        while pings:
            nonce = next(iter(pings))
            if pings[nonce][0].timestamp >= horizon:
                return
            del pings[nonce]

    def _class_of(self, entity_id: int) -> str:
        return self.config.entity_class.get(entity_id, DEFAULT_CLASS)

    def _dr_policy(self, entity_id: int) -> ClassPolicy:
        return self.config.policies.for_class(self._class_of(entity_id))

    def _note_mode(self, entity_id: int, mode: ConsistencyMode) -> None:
        if self._entity_modes.get(entity_id) != mode:
            self._entity_modes[entity_id] = mode
            self.callbacks.notify_mode(entity_id, mode)

    def mode_of(self, entity_id: int) -> ConsistencyMode:
        return self._entity_modes.get(entity_id, NORMAL)

    def route_to(self, peer: int) -> int | None:
        decision = self.routes.get(peer)
        return None if decision is None else decision.chosen_link
