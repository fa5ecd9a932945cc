"""Per-client composite wiring every manager into the reception and
transmission pipelines.

Reception is one flat pass per frame (_receive): decode -> delay
estimation -> critical area tracking -> playout buffering -> rollback
ordering -> prediction/convergence -> game callbacks. The frame decodes
with one unpack, and the pass dispatches on the record's exact type; a
frame that does not decode, a NaN or infinite field included, counts in
decode_errors and goes no further. A
data frame's one-way delay is its receive time minus its timestamp,
clamped to 0 and counted as a clock anomaly when negative; _observe is the
one place a sample updates the estimator and the peer's quiet time. The
frame's consistency mode is evaluated once, after its position is
recorded: that one mode scales the frame's lag, which comes from one
lookup of its entity's class policy, read live, and becomes the entity's
noted mode. Rollback ordering covers events only: a state update, on time
or late, reaches the game once, through one apply path, as the displayed
position at the playout time, and never regresses the entity's view. The
stages carry no instrumentation of their own; `processing_ns`, an
array('q') at 8 bytes a frame, times each received frame as a whole (the
append is outside the timed span), and on_network_message returns a data
frame's delivery (receive time, sender, entity, seq, one-way delay,
critical flag), so the caller records it outside that timing. The pass
reaches decode, encode and the estimator, playout buffer, mode tracker and
delivery log methods by name at call time, never through a bound copy, so
a wrapper set on one of those names (perfbench's traced runs set them)
sees every call.

Transmission is one flat pass per tick (tick): release due playouts ->
forget expired probes -> local positions -> modes -> dead-reckoning gate ->
timestamping -> critical flag -> encode -> fan-out. Playouts are released
only when the buffer's head is due, and each released state update goes
through the one apply path. Every local entity's position is recorded
before any mode is evaluated, so an anchored region sees this tick's
positions whatever the entities' order. Each local point is tested
against the regions once: that one containment gives the entity's mode
(the mode tracker takes the result, not the point) and, when the update is
sent, the sends_in_region count. The tick reaches encode, should_send,
displayed_position and mode_for by name at call time, as reception does.
Everything a manager keeps of one peer (links, route, quiet time) is one
_Peer record in peers, in peer id order. The fan-out sends a frame to every
peer in one pass: route re-evaluation (overlay on, and only for a route
past its dwell: this is the one place the dwell applies, and
overlay.select_route only chooses a link) -> network. Per-peer link
bookkeeping happens at link changes, not per send: each peer's links are
split into available links, available relays and whether a direct link is
up at session start and whenever a link to the peer changes, and the half
of critical proximity that no peer changes is taken once per frame. A
route leaves a down link in one place, on_link_change, at the link change
and whatever the route dwell. A frame waits in its peer's queue only while
no link to the peer is up: queued frames expire per tick after
QUEUE_LIMIT_MS, and the rest are sent, in order, when a link to the peer
comes up. A tick looks at the peers one by one only when a ping may
be due (the earliest time any peer went quiet is idle_ping_ms old) and
only for peers with frames queued. Route switches, and the failovers among
them, are counted in PmCounters, not logged. Each player manager is
single-threaded; distinct managers share no mutable state and talk only
through the network layer.

The Medium's settings are defined here once: a PolicySet (a ClassPolicy per
object class, which is that class's dead-reckoning policy plus its local
lag, and the run-wide scales, intervals and dwells) and Toggles (which
pipeline stages run). Each settings type holds its fields' defaults and
checks their bounds when it is built, raising a ValueError that begins with
the field's name, and a PolicySet checks a field's bound whenever the
field is set; the scenario parser reads both from the types. A
PlayerManagerConfig adds what differs per client and the run-wide entity
and region tables; every client of a run shares one PolicySet and one
Toggles, and the manager reads them live.
"""

import math
import time
from array import array
from collections import deque
from dataclasses import dataclass, field, replace

from gamesync import rollback as rb
from gamesync.clock import (DEFAULT_ALPHA, LatencyEstimator, VirtualClock,
                            rtt_probe)
# converge is no longer called here: displayed_at is the display rule it
# delegates to. The name stays importable from this module, where
# perfbench's traced runs wrap it.
from gamesync.deadreckoning import (DEFAULT_HEARTBEAT_MS, DeadReckoningPolicy,
                                    EntityKinematics, converge, displayed_at,
                                    should_send)
from gamesync.locallag import PlayoutBuffer
from gamesync.overlay import (LinkKind, LinkPartition, LinkSpec,
                              PeerCapabilities, best_link, default_route,
                              partition, select_route)
from gamesync.pdu import (CodecError, EventMessage, PingMessage, PongMessage,
                          StateUpdate, decode, encode)
from gamesync.regions import (EXIT_HYSTERESIS_MS, ConsistencyMode,
                              ModeTracker, RegionSet)

NORMAL = ConsistencyMode.NORMAL
STRONG = ConsistencyMode.STRONG

_new = tuple.__new__    # builds a NamedTuple record without its __new__

QUEUE_LIMIT_MS = 1000    # frames queued longer than this are dropped


class ConfigInvalid(Exception):
    pass


class GameCallbacks:
    """Game-facing contract. Override what the game needs; the undo hook
    receives every event a rollback directive reverts (the game keeps its
    own inverse records). Rollback covers events only: state updates are
    never undone or replayed.

    The messages and kinematics handed over are immutable NamedTuples:
    equality is field-wise, as for tuples, and a game may keep them as
    they are without copying."""

    def apply_remote_state(self, entity_id: int, kin: EntityKinematics) -> None:
        """kin is the entity's displayed position at the playout time, its
        wire velocity, and that time. Each update is applied once, late or
        not; a late one never regresses the view, so the game gets the
        position already displayed."""

    def apply_event(self, msg: EventMessage) -> None:
        """Apply an event: in order, or as part of a rollback's replay,
        so one event can be applied more than once, in the order of
        (timestamp, sender_id, entity_id, seq), the key that names it. An
        exception raised here fails the delivery with
        rollback.CallbackFailure, and an event the game does not hold is
        not logged as applied: a resend of it is delivered again, and no
        later rollback undoes it."""

    def undo_event(self, msg: EventMessage) -> None:
        """Revert an applied event, newest first; the rollback then applies
        the late event and re-applies the undone ones."""

    def query_local_state(self, entity_id: int) -> EntityKinematics:
        raise NotImplementedError

    def notify_mode(self, entity_id: int, mode: ConsistencyMode) -> None:
        pass


DEFAULT_CLASS = "default"    # the class of an entity whose class is not set


@dataclass(frozen=True)
class ClassPolicy(DeadReckoningPolicy):
    """An object class's dead-reckoning policy plus its local lag."""

    lag_ms: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.lag_ms < 0:
            raise ValueError("lag_ms must be >= 0")


# PolicySet's bounds: the scales and alpha lie in (0, 1], and each other
# bounded field has a least value (the radius may also be None).
_UNIT_INTERVAL = frozenset(("critical_threshold_scale", "critical_lag_scale",
                            "ewma_alpha"))
_LEAST = {"heartbeat_ms": 1, "idle_ping_ms": 1, "exit_hysteresis_ms": 0,
          "route_hysteresis_ms": 0, "critical_proximity_radius_m": 0}


@dataclass
class PolicySet:
    """The run-wide settings: the policy of a class not in classes, each
    other class's policy by class id, and the scales, intervals, dwells and
    radius. Managers read them live, so a field's bound is checked
    whenever the field is set, by the constructor or after it."""

    default: ClassPolicy = field(default_factory=ClassPolicy)
    classes: dict = field(default_factory=dict)   # class id -> ClassPolicy
    critical_threshold_scale: float = 0.25
    critical_lag_scale: float = 0.5
    heartbeat_ms: int = DEFAULT_HEARTBEAT_MS
    ewma_alpha: float = DEFAULT_ALPHA
    exit_hysteresis_ms: int = EXIT_HYSTERESIS_MS
    route_hysteresis_ms: int = 500
    idle_ping_ms: int = 1000
    critical_proximity_radius_m: float | None = None

    def __setattr__(self, name, value):
        if name in _UNIT_INTERVAL:
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        elif name in _LEAST and value is not None and value < _LEAST[name]:
            raise ValueError(f"{name} must be >= {_LEAST[name]}")
        object.__setattr__(self, name, value)


@dataclass
class Toggles:
    overlay: bool = False
    sender_side_lag: bool = True
    receiver_side_lag: bool = True
    critical_tightening: bool = True


@dataclass
class PlayerManagerConfig:
    """One client's view of a run: its own id, links, entities and clock
    offset, the run-wide entity and region tables, and the policies and
    toggles every client of the run shares. The manager takes the EWMA
    alpha and the exit hysteresis once, at construction, and reads every
    other setting, each class's lag included, live."""
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
    """A manager's counts. Each field's name is the run summary's key for
    it, and the runner sums every field over the managers, so a new count
    is one new field."""
    state_sends: int = 0
    sends_in_region: int = 0
    events_sent: int = 0
    data_messages_received: int = 0
    decode_errors: int = 0
    late_messages: int = 0
    # rollbacks, duplicates_dropped and dropped_beyond_window count events:
    # states never enter the rollback log
    rollbacks: int = 0
    duplicates_dropped: int = 0
    dropped_beyond_window: int = 0
    clock_anomalies: int = 0
    messages_dropped_queue: int = 0
    # every route switch, and the failovers among them (see on_link_change)
    route_switches: int = 0
    route_failovers: int = 0


@dataclass(slots=True)
class _Peer:
    """Everything a manager keeps of one peer: every link to it (in link id
    order) and their overlay.partition as of the last change to one, the
    entities it owns, its route (the chosen link id, -1 when no link
    connects us) and when the route last switched, the later of its last
    data or pong and our last ping to it, and whether its last state update
    was flagged critical."""
    links: list
    partition: LinkPartition
    entities: tuple
    route: int
    switched_at: int
    quiet_since: int
    critical: bool = False


@dataclass(slots=True)
class _RemoteView:
    corrected: EntityKinematics
    epoch_start: int
    snapshot: tuple | None    # displayed pos when the epoch began; None snaps
    window: int     # the entity's convergence window when the epoch began


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
        self.buffer = PlayoutBuffer()
        self.log = rb.DeliveryLog()
        self.modes = ModeTracker(pol.exit_hysteresis_ms)
        self.counters = PmCounters()
        self.processing_ns = array("q")    # one 8-byte time per frame

        self.links_by_id: dict[int, LinkSpec] = {}
        for spec in config.links:
            if config.client_id not in spec.endpoints:
                raise ConfigInvalid(
                    f"link {spec.link_id} does not touch client {config.client_id}")
            self.links_by_id[spec.link_id] = replace(spec)

        self.peers: dict[int, _Peer] = {}
        # peer -> its queued (frame, time) pairs, for peers with any queued
        self._pending: dict[int, deque] = {}
        # direct links to peers whose address is unknown: down for the
        # whole session, whatever the link events say
        self.unreachable: set[int] = set()
        self._views: dict[int, _RemoteView] = {}
        self._last_sent: dict[int, EntityKinematics] = {}
        self._seqs: dict[int, int] = {}
        self._entity_positions: dict[int, tuple] = {}
        self._entity_modes: dict[int, ConsistencyMode] = {}
        self._outstanding_pings: dict[int, tuple] = {}
        self._ping_counter = 0
        # A ping to a peer is due once its quiet_since is idle_ping_ms old.
        # _quiet_min is at most the earliest quiet_since (they only grow),
        # so no ping is due before _quiet_min + idle_ping_ms.
        #
        # A manager has 22 instance attributes. CPython stops sharing the
        # instances' dict keys at 30, and attribute loads on every manager
        # then get slower (see the attribute budget test in
        # tests/test_runner.py), so new state replaces attributes rather
        # than adding to them; per-peer state goes in _Peer.
        self._quiet_min = math.inf

    # -- session ---------------------------------------------------------

    def start_session(self, peer_capabilities: list[PeerCapabilities],
                      now: int = 0) -> None:
        """Collect peer info, mark unreachable direct links down for the
        session, choose default routes, zero sequence counters, and fire the
        initial ping round. A peer with no link up is routed over its
        lowest-id link, and frames to it queue until a link comes up."""
        now = self.clock.read(now)
        self._seqs.clear()
        self.estimator.reset()
        self.peers = {}
        for caps in sorted(peer_capabilities, key=lambda c: c.peer_id):
            peer_id = caps.peer_id
            links = [l for l in self.links_by_id.values()
                     if l.connects(self.config.client_id, peer_id)]
            if not caps.direct_address_known:
                for l in links:
                    if l.kind is LinkKind.DIRECT:
                        l.available = False
                        self.unreachable.add(l.link_id)
            links.sort(key=lambda l: l.link_id)
            split = partition(links)
            route = -1
            if links:
                route = links[0].link_id
                if split.available:
                    route = default_route(split, {})
            entities = tuple(e for e, owner in self.config.entity_owner.items()
                             if owner == peer_id)
            peer = self.peers[peer_id] = _Peer(links, split, entities, route,
                                               now, now)
            self._send_pings(peer, now)
        self._quiet_min = now if self.peers else math.inf

    # -- reception pipeline ------------------------------------------------

    def on_network_message(self, data: bytes, now: int,
                           link_id: int) -> tuple | None:
        """Receive one frame, timed into processing_ns. Returns the delivery
        of a data frame, (now, sender, entity, seq, delay, critical) with now
        on the local clock, and None for a ping, a pong or a malformed
        frame."""
        t0 = time.perf_counter_ns()
        try:
            return self._receive(data, now, link_id)
        finally:
            self.processing_ns.append(time.perf_counter_ns() - t0)

    def _receive(self, data: bytes, now: int, link_id: int) -> tuple | None:
        """One flat pass per frame (see the module docstring). A data
        frame's mode is evaluated at the entity's recorded position (an
        event's entity may have none: normal, not noted); a critical update
        is strong whatever its region."""
        now = self.clock.read(now)
        try:
            msg = decode(data)
        except CodecError:   # a malformed frame, or a NaN or infinity in one
            self.counters.decode_errors += 1
            return None
        kind = type(msg)
        if kind is PingMessage:
            pong = PongMessage(self.config.client_id, msg.nonce, now,
                               msg.timestamp)
            link = self.links_by_id.get(link_id)
            if link is not None and link.available:
                self._send_fn(link_id, encode(pong))
            return None
        if kind is PongMessage:
            entry = self._outstanding_pings.pop(msg.nonce, None)
            if entry is None:
                return None
            ping, ping_link = entry
            delay = rtt_probe(ping, msg, now)
            self._observe(msg.sender_id, ping_link, delay, now)
            return None

        # data message (state update or event)
        sender, entity, seq, timestamp = msg[:4]
        counters = self.counters
        counters.data_messages_received += 1
        delay = now - timestamp
        if delay < 0:
            delay = 0
            counters.clock_anomalies += 1
        self._observe(sender, link_id, delay, now)
        positions = self._entity_positions
        critical = False
        if kind is StateUpdate:
            critical = msg.critical
            peer = self.peers.get(sender)
            if peer is not None:
                peer.critical = critical
            positions[entity] = msg.pos
        delivery = (now, sender, entity, seq, delay, critical)

        config = self.config
        toggles = config.toggles
        mode = NORMAL
        if toggles.critical_tightening:
            pos = positions.get(entity)
            if pos is not None:
                mode = self.modes.mode_for(
                    entity, config.regions.any_contains(pos, positions), now)
                if critical:
                    mode = STRONG
                self._note_mode(entity, mode)
        if toggles.receiver_side_lag:
            if not self.buffer.enqueue(msg, self._lag(entity, mode), now).late:
                return delivery
            counters.late_messages += 1
        self._playout(msg, now)
        return delivery

    def _playout(self, msg, now: int) -> None:
        """A state update goes straight to prediction and the game; an
        event goes through rollback ordering first. Dispatches on the
        exact type, of the message (every message played out was decoded
        or built here) and of the log's outcome (built in rollback). A game
        callback that raises on either event path raises CallbackFailure,
        and the log then lists exactly the events the game holds."""
        if type(msg) is StateUpdate:
            self._apply_state(msg, now)
            return
        outcome = self.log.on_deliver(msg, now)
        kind = type(outcome)
        if kind is rb.Apply:
            try:
                self.callbacks.apply_event(msg)
            except Exception as exc:
                self.log.withdraw(msg)
                raise rb.CallbackFailure(f"game callback failed: {exc}") from exc
        elif kind is rb.RollbackDirective:
            self.counters.rollbacks += 1
            try:
                rb.apply_directive(self.callbacks, outcome)
            except rb.CallbackFailure as failure:
                # keep the log to the events the game holds
                for undone in failure.undone:
                    self.log.withdraw(undone)
                if failure.late_applied:
                    self.log.commit(outcome)
                raise
            self.log.commit(outcome)
        elif kind is rb.DropDuplicate:
            self.counters.duplicates_dropped += 1
        else:   # DropBeyondWindow
            self.counters.dropped_beyond_window += 1

    def _apply_state(self, msg: StateUpdate, now: int) -> None:
        """Fold an update's wire kinematics into the entity's view, then
        hand the game the displayed position at now. Every state update
        comes through here once, on time or late.

        An update starts a blend epoch unless it is older than the view's
        (it never regresses the view) or is the one the view holds (a
        duplicate frame leaves the blend running). An epoch blends
        from a snapshot, the position displayed when it starts, and shows
        that snapshot at its start, so the game gets it. A zero convergence
        window snaps and keeps no snapshot. The position is evaluated for
        the game on its own only where there is no snapshot to hand over
        (the first update, one that starts no epoch, a zero window) or the
        clock is behind the update (the wire position shows)."""
        _, entity_id, _, timestamp, pos, vel, _ = msg
        kin = _new(EntityKinematics, (pos, vel, timestamp))
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
            entity_id, _new(EntityKinematics, (shown, vel, now)))

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
        """One flat pass (see the module docstring): release due playouts,
        forget expired probes, record every local position, then evaluate
        each local entity's mode, then gate and send each one's update,
        ping peers gone quiet, and expire queued frames.

        A probe is forgotten once it is older than the log's history
        window: its pong was lost. The window therefore also bounds how
        long a probe waits for its pong: a pong whose round trip exceeds
        the window yields no RTT sample, and changing the window changes
        RTT probing too."""
        now = self.clock.read(now)
        buffer = self.buffer
        heap = buffer.heap
        if heap and heap[0][0][0] <= now:
            for entry in buffer.release_due(now):
                self._playout(entry.msg, now)
        pings = self._outstanding_pings
        if pings:   # in send order, so the stale ones lead
            horizon = now - self.log.history_window_ms
            while pings:
                nonce = next(iter(pings))
                if pings[nonce][0].timestamp >= horizon:
                    break
                del pings[nonce]

        config = self.config
        callbacks = self.callbacks
        positions = self._entity_positions
        states = []
        for entity_id in config.local_entities:
            kin = callbacks.query_local_state(entity_id)
            positions[entity_id] = kin.pos
            states.append((entity_id, kin))

        # Every local position is recorded before any containment test, so
        # an anchored region reads this tick's position of its anchor
        # whatever the entities' order. The one test gives the mode and
        # sends_in_region; with tightening off it is made only on a send.
        regions = config.regions
        tighten = config.toggles.critical_tightening
        gated = []
        for entity_id, kin in states:
            inside = None
            mode = NORMAL
            if tighten:
                inside = regions.any_contains(kin.pos, positions)
                mode = self.modes.mode_for(entity_id, inside, now)
            self._note_mode(entity_id, mode)
            gated.append((entity_id, kin, mode is STRONG, inside))

        pol = config.policies
        last_sent = self._last_sent
        seqs = self._seqs
        counters = self.counters
        for entity_id, kin, strong, inside in gated:
            if not should_send(kin, last_sent.get(entity_id),
                               self._dr_policy(entity_id), now,
                               pol.heartbeat_ms,
                               pol.critical_threshold_scale if strong else 1.0):
                continue
            seq = seqs.get(entity_id, 0) + 1
            seqs[entity_id] = seq
            pos = kin.pos
            vel = kin.vel
            data = encode(_new(StateUpdate, (config.client_id, entity_id, seq,
                                             now, pos, vel, strong)))
            counters.state_sends += 1
            if inside is None:
                inside = regions.any_contains(pos, positions)
            if inside:
                counters.sends_in_region += 1
            self._fan_out(data, now)
            last_sent[entity_id] = _new(EntityKinematics, (pos, vel, now))

        if now - self._quiet_min >= pol.idle_ping_ms:
            peers = self.peers.values()
            for peer in peers:
                if now - peer.quiet_since >= pol.idle_ping_ms:
                    self._send_pings(peer, now)
            self._quiet_min = min((peer.quiet_since for peer in peers),
                                  default=math.inf)
        if self._pending:
            for peer, pending in list(self._pending.items()):
                self._expire_queued(pending, now)
                if not pending:
                    del self._pending[peer]

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
        self._fan_out(data, now)
        mode = self._entity_modes.get(entity_id, NORMAL)
        if self.config.toggles.sender_side_lag:
            entry = self.buffer.enqueue(msg, self._lag(entity_id, mode), now)
            if entry.late:
                self._playout(msg, now)
        else:
            self._playout(msg, now)
        return msg

    def _fan_out(self, data: bytes, now: int) -> None:
        """Send a frame to every peer, in peer order, on the peer's route.
        A route sits on a down link only while no link to the peer is up
        (on_link_change keeps it so), and then the frame waits in the
        peer's queue. With overlay on, a route past its dwell is
        re-evaluated first, and moves to the link select_route chooses;
        inside the dwell it is not asked. This is the one place the dwell
        applies."""
        links_by_id = self.links_by_id
        send = self._send_fn
        overlay = self.config.toggles.overlay
        if overlay:
            dwell = self.config.policies.route_hysteresis_ms
            estimates = self.estimator.estimates
            local = self._local_proximity()
        for peer_id, peer in self.peers.items():
            link_id = peer.route
            if link_id < 0:
                continue
            if not links_by_id[link_id].available:
                self._pending.setdefault(peer_id, deque()).append((data, now))
                continue
            if overlay and now - peer.switched_at >= dwell:
                chosen = select_route(peer.partition, estimates,
                                      self._critical_proximity(peer, local))
                if chosen != link_id:
                    self.counters.route_switches += 1
                    peer.route = link_id = chosen
                    peer.switched_at = now
            send(link_id, data)

    def on_link_change(self, link_id: int, available: bool, now: int) -> None:
        """Network-layer notification, and the one place a route leaves a
        down link. Only the link's peer is touched, and its link partition
        is remade; a direct link to a peer whose address is unknown stays
        down. If its route is on a down link while another link to it is
        up, the route fails over at once to the best link that is up,
        whatever the dwell. Whenever the route ends on an up link, the
        peer's queued frames older than QUEUE_LIMIT_MS are dropped and the
        rest are sent, in order."""
        now = self.clock.read(now)
        link = self.links_by_id.get(link_id)
        if link is None or link_id in self.unreachable:
            return
        link.available = available
        peer_id = link.other_endpoint(self.config.client_id)
        peer = self.peers.get(peer_id)
        if peer is None:
            return
        split = peer.partition = partition(peer.links)
        if not self.links_by_id[peer.route].available:
            if not split.available:
                return
            best = best_link(split.available,
                             self.estimator.estimates).link_id
            self.counters.route_switches += 1
            self.counters.route_failovers += 1
            peer.route = best
            peer.switched_at = now
        pending = self._pending.pop(peer_id, None)
        if pending:
            self._expire_queued(pending, now)
            while pending:
                self._send_fn(peer.route, pending.popleft()[0])

    def _expire_queued(self, pending: deque, now: int) -> None:
        """Drop queued frames older than QUEUE_LIMIT_MS, oldest first."""
        while pending and now - pending[0][1] > QUEUE_LIMIT_MS:
            pending.popleft()
            self.counters.messages_dropped_queue += 1

    # -- helpers -----------------------------------------------------------

    def _local_proximity(self) -> tuple | None:
        """The half of critical proximity that no peer changes, taken once
        per fan-out: whether a local entity is strong, the positions of the
        local entities that have one, and the squared proximity radius
        (None without a radius). None with critical tightening off."""
        if not self.config.toggles.critical_tightening:
            return None
        local = self.config.local_entities
        modes, positions = self._entity_modes, self._entity_positions
        strong = any(modes.get(e) is STRONG for e in local)
        mine = [pos for pos in map(positions.get, local) if pos is not None]
        radius = self.config.policies.critical_proximity_radius_m
        return strong, mine, None if radius is None else radius * radius

    def _critical_proximity(self, peer: _Peer, local) -> bool:
        """True when the peer flags its updates critical while a local
        entity is strong, or when one of the peer's entities is within the
        proximity radius of a local one. local is _local_proximity()."""
        if local is None:
            return False
        strong, mine, reach = local
        if strong and peer.critical:
            return True
        if reach is None:
            return False
        positions = self._entity_positions
        for other in peer.entities:
            pos = positions.get(other)
            if pos is None:
                continue
            for my_pos in mine:
                dx = my_pos[0] - pos[0]
                dy = my_pos[1] - pos[1]
                if dx * dx + dy * dy <= reach:
                    return True
        return False

    def _observe(self, peer_id: int, link_id: int, delay: int,
                 now: int) -> None:
        self.estimator.observe(link_id, delay)
        peer = self.peers.get(peer_id)
        if peer is not None:
            peer.quiet_since = now

    def _send_pings(self, peer: _Peer, now: int) -> None:
        for link in peer.links:
            if not link.available:
                continue
            self._ping_counter += 1
            nonce = (self.config.client_id << 32) | (self._ping_counter & 0xFFFFFFFF)
            ping = PingMessage(self.config.client_id, nonce, now)
            self._outstanding_pings[nonce] = (ping, link.link_id)
            self._send_fn(link.link_id, encode(ping))
        peer.quiet_since = now

    def _dr_policy(self, entity_id: int) -> ClassPolicy:
        """The entity's class policy, read live: one lookup."""
        config = self.config
        return config.policies.classes.get(
            config.entity_class.get(entity_id, DEFAULT_CLASS),
            config.policies.default)

    def _lag(self, entity_id: int, mode: ConsistencyMode) -> int:
        """The entity's class lag, scaled down in strong mode and rounded
        half up."""
        lag = self._dr_policy(entity_id).lag_ms
        if mode is STRONG:
            return int(lag * self.config.policies.critical_lag_scale + 0.5)
        return lag

    def _note_mode(self, entity_id: int, mode: ConsistencyMode) -> None:
        if self._entity_modes.get(entity_id) is not mode:
            self._entity_modes[entity_id] = mode
            self.callbacks.notify_mode(entity_id, mode)

    def mode_of(self, entity_id: int) -> ConsistencyMode:
        return self._entity_modes.get(entity_id, NORMAL)
