"""Oracle for the flat tick: a manager whose tick is written the way it was
before the flat pass, two containment walks per send and all, must act
exactly like the flat one.

The reference keeps one change to that older tick: every local position is
recorded before any mode is evaluated, so that an anchored region reads
this tick's position of its anchor whatever the entities' order (see
test_local_modes_do_not_depend_on_entity_order). It also keeps the older
apply path of played-out state updates, and shares everything else (the
reception pass, the fan-out, the codec) with the manager under test.

Both managers get the same inputs step by step: local motion, data frames
from peers (on time, late and out of order), local events and link
changes. After every step they must have sent the same frames on the same
links in the same order, and agree on counters, mode notifications, states
handed to the game, and what each last sent."""

import math
from dataclasses import asdict

from hypothesis import given
from hypothesis import strategies as st

from gamesync.deadreckoning import EntityKinematics, should_send
from gamesync.overlay import LinkKind, LinkSpec, PeerCapabilities
from gamesync.pdu import EventKind, EventMessage, StateUpdate, encode
from gamesync.player import (ClassPolicy, GameCallbacks, PlayerManager,
                             PlayerManagerConfig, PolicySet, Toggles,
                             _RemoteView)
from gamesync.regions import (AnchoredCircle, Circle, ConsistencyMode, Rect,
                              RegionSet)

NORMAL = ConsistencyMode.NORMAL
STRONG = ConsistencyMode.STRONG


class ReferenceManager(PlayerManager):
    """The tick and state apply path as written before the flat pass."""

    def tick(self, now: int) -> None:
        now = self.clock.read(now)
        for entry in self.buffer.release_due(now):
            self._playout(entry.msg, now)
        self._expire_pings(now)

        recorded = []
        for entity_id in self.config.local_entities:
            kin = self.callbacks.query_local_state(entity_id)
            self._entity_positions[entity_id] = kin.pos
            recorded.append((entity_id, kin))
        states = []
        for entity_id, kin in recorded:
            mode = NORMAL
            if self.config.toggles.critical_tightening:
                inside = self.config.regions.any_contains(
                    kin.pos, self._entity_positions)
                mode = self.modes.mode_for(entity_id, inside, now)
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
            self.counters.state_sends += 1
            if self.config.regions.any_contains(kin.pos,
                                                self._entity_positions):
                self.counters.sends_in_region += 1
            self._fan_out(data, now)
            self._last_sent[entity_id] = EntityKinematics(kin.pos, kin.vel,
                                                          now)

        if now - self._quiet_min >= pol.idle_ping_ms:
            peers = self.peers
            for peer in peers:
                if now - peers[peer].quiet_since >= pol.idle_ping_ms:
                    self._send_pings(peers[peer], now)
            self._quiet_min = min((p.quiet_since for p in peers.values()),
                                  default=math.inf)
        if self._pending:
            for peer, pending in list(self._pending.items()):
                self._expire_queued(pending, now)
                if not pending:
                    del self._pending[peer]

    def _expire_pings(self, now: int) -> None:
        pings = self._outstanding_pings
        horizon = now - self.log.history_window_ms
        while pings:
            nonce = next(iter(pings))
            if pings[nonce][0].timestamp >= horizon:
                return
            del pings[nonce]

    def _playout(self, msg, now: int) -> None:
        if isinstance(msg, StateUpdate):
            self._apply_kinematics(
                msg.entity_id,
                EntityKinematics(msg.pos, msg.vel, msg.timestamp), now)
            return
        super()._playout(msg, now)

    def _apply_kinematics(self, entity_id: int, kin: EntityKinematics,
                          now: int) -> None:
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


class Game(GameCallbacks):
    """Local motion set by the test; everything handed over is recorded."""

    def __init__(self):
        self.local = {}
        self.record = []

    def query_local_state(self, entity_id):
        return self.local[entity_id]

    def apply_remote_state(self, entity_id, kin):
        self.record.append(("state", entity_id, kin))

    def apply_event(self, msg):
        self.record.append(("event", msg))

    def undo_event(self, msg):
        self.record.append(("undo", msg))

    def notify_mode(self, entity_id, mode):
        self.record.append(("mode", entity_id, mode))


LOCAL = (1, 2, 3)
PEERS = (10, 20)
REMOTE = {10: (11, 12), 20: (21,)}

coord = st.one_of(st.integers(-12, 12).map(float),
                  st.floats(-12.0, 12.0))
point = st.tuples(coord, coord)
velocity = st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
region = st.one_of(
    st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h), coord, coord,
              st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.builds(Circle, point, st.floats(0.5, 8.0)),
    st.builds(AnchoredCircle, st.sampled_from(LOCAL + (11, 12, 21, 99)),
              st.floats(0.5, 8.0)),
)

# times on a 10 ms grid, so that playout deadlines and probe horizons often
# fall exactly on a tick
gap = st.sampled_from([0, 10, 20, 40, 50, 80, 150])
age = st.sampled_from([0, 10, 40, 80, 150, 300, 600])

step = st.one_of(
    st.tuples(st.just("tick"), gap,
              st.lists(st.tuples(point, velocity), min_size=3, max_size=3)),
    st.tuples(st.just("hear"), gap,
              st.tuples(st.sampled_from([(10, 11), (10, 12), (20, 21)]),
                        age, point, velocity,
                        st.booleans())),
    st.tuples(st.just("event"), gap,
              st.tuples(st.sampled_from(PEERS + (None,)), age)),
    st.tuples(st.just("link"), gap,
              st.tuples(st.integers(0, 3), st.booleans())),
)

setup = st.fixed_dictionaries({
    "entities": st.permutations(LOCAL).flatmap(
        lambda order: st.integers(1, 3).map(lambda n: tuple(order[:n]))),
    "regions": st.lists(region, max_size=3),
    "tightening": st.booleans(),
    "overlay": st.booleans(),
    "sender_side_lag": st.booleans(),
    "receiver_side_lag": st.booleans(),
    "heartbeat_ms": st.sampled_from([50, 120, 400]),
    "lag_ms": st.sampled_from([0, 80, 300]),
    "convergence_ms": st.sampled_from([0, 150]),
    "threshold_m": st.sampled_from([0.3, 1.0]),
    "radius": st.sampled_from([None, 5.0]),
})


def make(cls, spec):
    regions = RegionSet()
    for r in spec["regions"]:
        regions.add(r)
    links = []
    for i, peer in enumerate(PEERS):
        links.append(LinkSpec(2 * i, (0, peer), 100))
        links.append(LinkSpec(2 * i + 1, (0, peer), 40, kind=LinkKind.DIRECT))
    owner = {e: 0 for e in LOCAL}
    for peer, owned in REMOTE.items():
        owner.update((e, peer) for e in owned)
    config = PlayerManagerConfig(
        client_id=0, links=links, local_entities=spec["entities"],
        entity_class={2: "tank", 21: "tank"}, entity_owner=owner,
        regions=regions,
        policies=PolicySet(
            default=ClassPolicy(threshold_m=spec["threshold_m"],
                                convergence_ms=spec["convergence_ms"],
                                lag_ms=spec["lag_ms"]),
            classes={"tank": ClassPolicy(threshold_m=0.5, convergence_ms=0,
                                         lag_ms=spec["lag_ms"] // 2)},
            heartbeat_ms=spec["heartbeat_ms"], idle_ping_ms=300,
            route_hysteresis_ms=100,
            critical_proximity_radius_m=spec["radius"]),
        toggles=Toggles(overlay=spec["overlay"],
                        sender_side_lag=spec["sender_side_lag"],
                        receiver_side_lag=spec["receiver_side_lag"],
                        critical_tightening=spec["tightening"]))
    game, sent = Game(), []
    pm = cls(config, game, lambda link, data: sent.append((link, data)))
    pm.start_session([PeerCapabilities(p) for p in PEERS], 0)
    return pm, game, sent


def observed(pm, game, sent):
    return (list(sent), asdict(pm.counters), list(game.record),
            dict(pm._last_sent), dict(pm._entity_modes), dict(pm._seqs),
            list(pm._outstanding_pings),
            {peer_id: (peer.route, peer.switched_at, peer.quiet_since)
             for peer_id, peer in pm.peers.items()})


@given(setup, st.lists(step, min_size=15, max_size=40))
def test_flat_tick_acts_like_the_reference(spec, steps):
    managers = [make(PlayerManager, spec), make(ReferenceManager, spec)]
    assert observed(*managers[0]) == observed(*managers[1])
    now, seqs = 0, {}

    def frame(cls, peer, entity, age, *body):
        seqs[entity] = seqs.get(entity, 0) + 1
        msg = cls(peer, entity, seqs[entity], max(0, now - age), *body)
        return encode(msg), PEERS.index(peer) * 2

    for action, dt, arg in steps:
        now += dt
        heard = None
        if action == "hear":
            (peer, entity), age, pos, vel, critical = arg
            heard = frame(StateUpdate, peer, entity, age, pos, vel, critical)
        elif action == "event" and arg[0] is not None:
            peer, age = arg
            heard = frame(EventMessage, peer, REMOTE[peer][0], age,
                          EventKind.FIRE, b"\x01" * 8)
        for pm, game, _ in managers:
            if action == "tick":
                for entity_id, (pos, vel) in zip(LOCAL, arg):
                    game.local[entity_id] = EntityKinematics(pos, vel, now)
                pm.tick(now)
            elif heard is not None:
                pm.on_network_message(heard[0], now, heard[1])
            elif action == "event":
                pm.send_event(LOCAL[0], EventKind.FIRE, b"\x00" * 8, now)
            else:
                pm.on_link_change(*arg, now)
        assert observed(*managers[0]) == observed(*managers[1]), (action, now)
