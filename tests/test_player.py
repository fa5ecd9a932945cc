"""Player manager: pipeline order, callback contracts, send gating, and
route/queue behavior. These tests drive the manager by hand through a
captured transport; full-simulator integration lives in test_runner.py."""


from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamesync import player
from gamesync import rollback as rb
from gamesync.deadreckoning import EntityKinematics
from gamesync.overlay import LinkKind, LinkSpec, PeerCapabilities, partition
from gamesync.pdu import (EventKind, EventMessage, PingMessage, PongMessage,
                          StateUpdate, decode, encode)
from gamesync.player import (ClassPolicy, ConfigInvalid, GameCallbacks,
                             PlayerManager, PlayerManagerConfig, PolicySet,
                             Toggles)
from gamesync.regions import AnchoredCircle, ConsistencyMode, Rect, RegionSet


class Spy(GameCallbacks):
    def __init__(self):
        self.states = []      # (entity, kinematics)
        self.events = []      # msg
        self.undone = []      # msg
        self.modes = []       # (entity, mode)
        self.local = {}       # entity -> EntityKinematics

    def apply_remote_state(self, entity_id, kin):
        self.states.append((entity_id, kin))

    def apply_event(self, msg):
        self.events.append(msg)

    def undo_event(self, msg):
        self.undone.append(msg)

    def query_local_state(self, entity_id):
        return self.local[entity_id]

    def notify_mode(self, entity_id, mode):
        self.modes.append((entity_id, mode))


TOGGLES = {f.name for f in fields(Toggles)}


def make_pm(client_id=1, peer=0, lag=500, local_entities=(), regions=None,
            **overrides):
    """A manager for client_id with one relay link to peer. Overrides name
    PolicySet or Toggles fields; the default class policy has a zero
    convergence window and the given lag."""
    sent = []
    region_set = RegionSet()
    for region in regions or ():
        region_set.add(region)
    toggles = {k: overrides.pop(k) for k in TOGGLES & set(overrides)}
    config = PlayerManagerConfig(
        client_id=client_id,
        regions=region_set,
        links=[LinkSpec(0, (client_id, peer), 250)],
        local_entities=local_entities,
        policies=PolicySet(default=ClassPolicy(threshold_m=0.5,
                                               convergence_ms=0, lag_ms=lag),
                           **overrides),
        toggles=Toggles(**toggles))
    spy = Spy()
    pm = PlayerManager(config, spy, lambda link, data: sent.append((link, data)))
    return pm, spy, sent


def state(ts, seq=1, sender=0, entity=7, pos=(1.0, 1.0), vel=(1.0, 0.0),
          critical=False):
    return StateUpdate(sender, entity, seq, ts, pos, vel, critical)


def event(ts, seq, sender=0, entity=7):
    return EventMessage(sender, entity, seq, ts, EventKind.FIRE, b"\x00" * 8)


def test_on_time_update_applies_predicted_position():
    pm, spy, _ = make_pm()
    pm.start_session([PeerCapabilities(0)], 0)
    msg = state(1000, pos=(1.0, 1.0), vel=(1.0, 0.0))
    pm.on_network_message(encode(msg), 1250, 0)
    assert spy.states == []               # still buffered
    pm.tick(1500)
    assert len(spy.states) == 1
    entity_id, kin = spy.states[0]
    assert entity_id == 7
    # first sighting snaps to predict(msg, release tick): 1 + 1*(0.5) = 1.5
    assert kin.pos == (1.5, 1.0)
    assert kin.at == 1500


def test_corrupt_frame_counted_never_crashes():
    pm, spy, _ = make_pm()
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(b"\x4d\x53\x01\x01 garbage", 100, 0)
    pm.on_network_message(b"", 101, 0)
    assert pm.counters.decode_errors == 2
    assert spy.states == [] and spy.events == []
    assert len(pm.processing_ns) == 2


def test_non_finite_frame_counted_never_crashes():
    """A NaN position or an infinite velocity on the wire is a bad frame:
    counted once, nothing raised, and the next valid frame plays out."""
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    frame = encode(state(100, seq=1))
    nan_pos = frame[:24] + bytes.fromhex("7ff8000000000000") + frame[32:]
    inf_vel = frame[:40] + bytes.fromhex("7ff0000000000000") + frame[48:]
    pm.on_network_message(nan_pos, 100, 0)
    assert pm.counters.decode_errors == 1
    pm.on_network_message(inf_vel, 101, 0)
    assert pm.counters.decode_errors == 2
    assert spy.states == [] and pm.counters.data_received == 0
    pm.on_network_message(encode(state(102, seq=2)), 102, 0)
    assert [entity for entity, _ in spy.states] == [7]
    assert pm.counters.decode_errors == 2


def test_late_event_rollback_callback_trace():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    for i, ts in enumerate((100, 130, 140)):
        pm.on_network_message(encode(event(ts, seq=i + 1)), ts + 5, 0)
    assert len(spy.events) == 3
    pm.on_network_message(encode(event(120, seq=4)), 141, 0)
    assert [m.timestamp for m in spy.undone] == [140, 130]
    assert [m.timestamp for m in spy.events] == [100, 130, 140, 120, 130, 140]
    assert pm.counters.rollbacks == 1


def test_failing_game_callback_aborts_the_rollback_uncommitted():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    for i, ts in enumerate((100, 130, 140)):
        pm.on_network_message(encode(event(ts, seq=i + 1)), ts + 5, 0)
    logged = len(pm.log)

    def failing_undo(msg):
        raise RuntimeError("the game lost its inverse record")

    spy.undo_event = failing_undo
    with pytest.raises(rb.CallbackFailure):
        pm.on_network_message(encode(event(120, seq=4)), 141, 0)
    assert len(pm.log) == logged


def test_failing_game_callback_on_an_in_order_event_leaves_it_unlogged():
    """The in-order path fails like a directive: CallbackFailure, and the
    event leaves the log, found by its order key although the failing
    callback delivered an event of its own after it."""
    pm, spy, _ = make_pm(receiver_side_lag=False, sender_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(encode(event(100, seq=1)), 105, 0)
    apply_event = spy.apply_event

    def failing_apply(msg):
        if msg.timestamp == 130:
            pm.send_event(9, EventKind.FIRE, b"\x00" * 8, 135)
            raise RuntimeError("the game rejected the event")
        apply_event(msg)

    spy.apply_event = failing_apply
    with pytest.raises(rb.CallbackFailure):
        pm.on_network_message(encode(event(130, seq=2)), 135, 0)
    assert [(m.timestamp, m.sender_id) for m in pm.log.applied] == \
        [(100, 0), (135, 1)]
    # an older event rolls back only what the game applied
    pm.on_network_message(encode(event(120, seq=3)), 136, 0)
    assert [m.timestamp for m in spy.undone] == [135]
    # and a resend of the failed event is delivered, not a duplicate
    spy.apply_event = apply_event
    pm.on_network_message(encode(event(130, seq=2)), 137, 0)
    assert pm.counters.duplicates == 0
    assert [m.timestamp for m in spy.events] == [100, 135, 120, 135, 130, 135]
    assert [m.timestamp for m in pm.log.applied] == [100, 120, 130, 135]


class Mirror(Spy):
    """A Spy that also keeps the events the game holds, in order, and can
    fail one event callback, the fail_at-th counted from 0, before it acts."""

    def __init__(self, fail_at=None):
        super().__init__()
        self.held = []
        self.calls = 0
        self.fail_at = fail_at

    def _count(self):
        self.calls += 1
        if self.calls - 1 == self.fail_at:
            raise RuntimeError("the game failed")

    def apply_event(self, msg):
        self._count()
        super().apply_event(msg)
        self.held.append(msg)

    def undo_event(self, msg):
        self._count()
        assert self.held and self.held[-1] is msg, \
            "undo must name the newest event the game holds"
        super().undo_event(msg)
        self.held.pop()


@pytest.mark.parametrize("fail_at, held", [
    (0, [100, 130, 140]),    # the undo of 140 raised: nothing changed
    (1, [100, 130]),         # the undo of 130 raised: 140 is undone
    (2, [100]),              # the late event's apply raised
    (3, [100, 120]),         # the re-apply of 130 raised
    (4, [100, 120, 130]),    # the re-apply of 140 raised
])
def test_failed_rollback_leaves_the_log_listing_what_the_game_holds(
        fail_at, held):
    """Events 100, 130 and 140 are applied, then 120 arrives late and one
    callback of its rollback raises. The log then lists exactly the events
    the game holds, and a later event at 110 undoes only held ones."""
    pm, _, _ = make_pm(receiver_side_lag=False)
    game = pm.callbacks = Mirror()
    pm.start_session([PeerCapabilities(0)], 0)
    for i, ts in enumerate((100, 130, 140)):
        pm.on_network_message(encode(event(ts, seq=i + 1)), ts + 5, 0)
    game.fail_at = game.calls + fail_at
    with pytest.raises(rb.CallbackFailure):
        pm.on_network_message(encode(event(120, seq=4)), 141, 0)
    assert [m.timestamp for m in game.held] == held
    assert pm.log.applied == game.held
    undone = len(game.undone)
    game.fail_at = None
    pm.on_network_message(encode(event(110, seq=5)), 142, 0)
    assert [m.timestamp for m in game.undone[undone:]] == \
        [t for t in held[::-1] if t > 110]
    assert [m.timestamp for m in game.held] == sorted(held + [110])
    assert pm.log.applied == game.held


@pytest.mark.parametrize("receiver_side_lag", [True, False])
def test_twin_events_play_out_in_one_order_whatever_the_arrival_order(
        receiver_side_lag):
    """Events of one sender's two entities that share timestamp and seq
    reach every viewer's game in entity order: through the playout buffer,
    or through a rollback when they are played out on arrival."""
    twins = [event(100, seq=1, entity=e) for e in (3, 4)]
    games = []
    for arrival in (twins, twins[::-1]):
        pm, _, _ = make_pm(receiver_side_lag=receiver_side_lag, lag=50)
        game = pm.callbacks = Mirror()
        pm.start_session([PeerCapabilities(0)], 0)
        for i, msg in enumerate(arrival):
            pm.on_network_message(encode(msg), 120 + i, 0)
        pm.tick(150)
        games.append(game)
    assert [[m.entity_id for m in g.held] for g in games] == [[3, 4], [3, 4]]
    if receiver_side_lag:
        assert [[m.entity_id for m in g.events] for g in games] == \
            [[3, 4], [3, 4]]


def test_reused_seqs_after_a_session_restart_reach_the_game():
    """A sender that calls start_session again numbers its seqs from 1
    again; its new events are new to the receiver, not duplicates."""
    sender, _, sent = make_pm(client_id=0, peer=1, local_entities=(7,),
                              sender_side_lag=False)
    sender.start_session([PeerCapabilities(1)], 0)
    sender.send_event(7, EventKind.FIRE, b"\x00" * 8, 100)
    sender.start_session([PeerCapabilities(1)], 800)
    sender.send_event(7, EventKind.FIRE, b"\x00" * 8, 900)
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    for link, data in sent:
        msg = decode(data)
        if type(msg) is EventMessage:
            pm.on_network_message(data, msg.timestamp + 5, link)
    assert [(m.seq, m.timestamp) for m in spy.events] == [(1, 100), (1, 900)]
    assert pm.counters.duplicates == 0


def test_event_beyond_the_history_window_is_counted_never_played_out():
    pm, spy, _ = make_pm(lag=100)
    pm.start_session([PeerCapabilities(0)], 0)
    window = pm.log.history_window_ms
    pm.on_network_message(encode(event(100, seq=1)), 100 + window + 1, 0)
    assert pm.counters.late_messages == 1
    assert pm.counters.beyond_window == 1
    assert spy.events == [] and len(pm.log) == 0
    # one exactly a window old is still played out
    pm.on_network_message(encode(event(101, seq=2)), 101 + window, 0)
    assert pm.counters.beyond_window == 1
    assert [m.timestamp for m in spy.events] == [101]


def test_late_tagged_message_goes_straight_to_rollback():
    pm, spy, _ = make_pm(lag=100)
    pm.start_session([PeerCapabilities(0)], 0)
    msg = state(1000)
    pm.on_network_message(encode(msg), 1500, 0)   # due 1100 < now
    assert pm.counters.late_messages == 1
    assert len(spy.states) == 1                   # played out immediately


def played_out_at(pm, spy, start, stop):
    """Tick from start to stop in 1 ms steps and return the first time a
    state update reaches the game, or None."""
    for now in range(start, stop):
        pm.tick(now)
        if spy.states:
            return now
    return None


def test_enqueue_strong_mode_halves_lag():
    """A critical update is strong: its 500 ms class lag is scaled by the
    critical lag scale to 250, so it plays out at 350, not 600."""
    pm, spy, _ = make_pm(lag=500, critical_lag_scale=0.5)
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(encode(state(100, critical=True)), 300, 0)
    assert pm.counters.late_messages == 0 and spy.states == []
    assert played_out_at(pm, spy, 300, 1000) == 350


def test_strong_vs_normal_pipeline_stepping():
    """Step both modes through the same delivery: strong playout is earlier
    by exactly the scaled-down lag, rounded half up (333 * 0.5 -> 167)."""
    for critical, lag, played_lag in ((False, 400, 400), (True, 400, 200),
                                      (True, 333, 167)):
        pm, spy, _ = make_pm(lag=lag, critical_lag_scale=0.5)
        pm.start_session([PeerCapabilities(0)], 0)
        pm.on_network_message(encode(state(1000, critical=critical)), 1050, 0)
        assert played_out_at(pm, spy, 1050, 2000) == 1000 + played_lag


def test_class_lag_is_read_live():
    pm, spy, _ = make_pm(lag=500)
    pm.start_session([PeerCapabilities(0)], 0)
    pm.config.policies.default = ClassPolicy(threshold_m=0.5,
                                             convergence_ms=0, lag_ms=100)
    pm.on_network_message(encode(state(1000)), 1010, 0)
    assert played_out_at(pm, spy, 1010, 2000) == 1100


@pytest.mark.parametrize("scale", [0, 1.5])
def test_critical_lag_scale_outside_unit_interval_is_rejected(scale):
    with pytest.raises(ConfigInvalid, match="critical_lag_scale"):
        make_pm(critical_lag_scale=scale)


def test_frame_from_a_sender_other_than_the_links_peer_moves_its_estimate():
    """Estimates are kept per link: a frame is credited to the link it
    arrived on, whoever its sender id names."""
    pm, spy, _ = make_pm(client_id=1, peer=0)
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(encode(state(100, sender=2)), 350, 0)
    assert pm.estimator.estimates == {0: 250.0}


def delay_seen(sent_at, received_at):
    """Hand one state frame stamped sent_at to a fresh manager at
    received_at; return the manager and the delays of the deliveries
    on_network_message returned."""
    pm, _, _ = make_pm()
    pm.start_session([PeerCapabilities(0)], 0)
    delivery = pm.on_network_message(encode(state(sent_at)), received_at, 0)
    assert delivery[:4] == (received_at, 0, 7, 1)
    return pm, [delivery[4]]


def test_data_frame_delay_reaches_the_estimator():
    pm, delays = delay_seen(1000, 1500)
    assert pm.estimator.estimates == {0: 500.0}
    assert delays == [500]
    assert pm.counters.clock_anomalies == 0


def test_equal_stamps_give_a_zero_delay_and_no_anomaly():
    pm, delays = delay_seen(1000, 1000)
    assert pm.estimator.estimates == {0: 0.0}
    assert delays == [0]
    assert pm.counters.clock_anomalies == 0


def test_frame_stamped_ahead_gives_a_zero_sample_and_one_anomaly():
    pm, delays = delay_seen(1000, 990)
    assert pm.estimator.estimates == {0: 0.0}
    assert delays == [0]
    assert pm.counters.clock_anomalies == 1


def test_duplicate_dropped():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    msg = event(100, seq=1)
    pm.on_network_message(encode(msg), 105, 0)
    pm.on_network_message(encode(msg), 106, 0)
    assert pm.counters.duplicates == 1
    assert len(spy.events) == 1


def test_sender_seq_strictly_increases():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            heartbeat_ms=50)
    pm.start_session([PeerCapabilities(1)], 0)
    for t in range(0, 1000, 50):
        spy.local[3] = EntityKinematics((t * 0.01, 0.0), (10.0, 0.0), t)
        pm.tick(t)
    frames = [decode(data) for _, data in sent]
    seqs = [m.seq for m in frames if isinstance(m, StateUpdate)]
    assert len(seqs) == 20
    assert all(b > a for a, b in zip(seqs, seqs[1:]))


def test_every_emitted_frame_decodes():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            heartbeat_ms=100)
    pm.start_session([PeerCapabilities(1)], 0)
    for t in range(0, 2000, 50):
        spy.local[3] = EntityKinematics((t * 0.01, 0.0), (10.0, 0.0), t)
        pm.tick(t)
        pm.send_event(3, EventKind.FIRE, b"\x01" * 8, t)
    for _, data in sent:
        decode(data)   # raises on any malformed frame


def test_entering_region_notifies_strong_once_and_flags_sends():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            regions=[Rect(10, -5, 20, 5)], heartbeat_ms=50)
    pm.start_session([PeerCapabilities(1)], 0)
    spy.local[3] = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    pm.tick(0)
    spy.local[3] = EntityKinematics((15.0, 0.0), (0.0, 0.0), 50)
    pm.tick(50)
    spy.local[3] = EntityKinematics((15.0, 0.0), (0.0, 0.0), 100)
    pm.tick(100)
    strong_notifies = [m for m in spy.modes if m[1] is ConsistencyMode.STRONG]
    assert strong_notifies == [(3, ConsistencyMode.STRONG)]
    frames = [decode(d) for _, d in sent]
    updates = [m for m in frames if isinstance(m, StateUpdate)]
    assert [m.critical for m in updates] == [False, True, True]


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_local_modes_do_not_depend_on_entity_order(order):
    """Entity 2 anchors a circle that takes in entity 1 at the second tick.
    Every local position is recorded before any mode is evaluated, so
    entity 1 is strong there whichever entity is listed first, and its
    send counts as inside the region."""
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=order,
                            regions=[AnchoredCircle(2, 5.0)], heartbeat_ms=50)
    pm.start_session([PeerCapabilities(1)], 0)
    spy.local[1] = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    spy.local[2] = EntityKinematics((100.0, 0.0), (0.0, 0.0), 0)
    pm.tick(0)
    assert pm.mode_of(1) is ConsistencyMode.NORMAL
    spy.local[2] = EntityKinematics((3.0, 0.0), (0.0, 0.0), 50)
    pm.tick(50)
    assert pm.mode_of(1) is ConsistencyMode.STRONG
    assert [m for e, m in spy.modes if e == 1] == [ConsistencyMode.NORMAL,
                                                 ConsistencyMode.STRONG]
    updates = [m for m in map(decode, (d for _, d in sent))
               if isinstance(m, StateUpdate) and m.entity_id == 1]
    assert [m.critical for m in updates] == [False, True]
    # entity 2 is always inside its own circle; entity 1 from tick 50
    assert pm.counters.sends == 4
    assert pm.counters.sends_in_region == 3


def test_strong_mode_tightens_threshold():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            regions=[Rect(-100, -100, 100, 100)],
                            heartbeat_ms=10**9,
                            critical_threshold_scale=0.25)
    pm.start_session([PeerCapabilities(1)], 0)
    spy.local[3] = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    pm.tick(0)    # initial unconditional send
    baseline = len([1 for _, d in sent if decode(d).__class__ is StateUpdate])
    # drift 0.2 m: below 0.5 but at/above the tightened 0.125
    spy.local[3] = EntityKinematics((0.2, 0.0), (0.0, 0.0), 50)
    pm.tick(50)
    after = len([1 for _, d in sent if decode(d).__class__ is StateUpdate])
    assert after == baseline + 1


def test_normal_mode_does_not_send_below_threshold():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            heartbeat_ms=10**9)
    pm.start_session([PeerCapabilities(1)], 0)
    spy.local[3] = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    pm.tick(0)
    sends_before = len(sent)
    spy.local[3] = EntityKinematics((0.2, 0.0), (0.0, 0.0), 50)
    pm.tick(50)
    assert len(sent) == sends_before


def test_pong_seeds_link_estimator():
    pm, spy, sent = make_pm()
    pm.start_session([PeerCapabilities(0)], 0)
    pings = [decode(d) for _, d in sent]
    assert len(pings) == 1
    pong = PongMessage(0, pings[0].nonce, 150, pings[0].timestamp)
    pm.on_network_message(encode(pong), 200, 0)
    assert pm.estimator.estimates[0] == 100.0   # (200 - 0 + 1) // 2


def test_unknown_direct_address_disables_direct_links():
    config = PlayerManagerConfig(
        client_id=0,
        links=[LinkSpec(0, (0, 1), 250),
               LinkSpec(1, (0, 1), 40, kind=LinkKind.DIRECT)])
    pm = PlayerManager(config, Spy(), lambda link, data: None)
    pm.start_session([PeerCapabilities(1, direct_address_known=False)], 0)
    assert pm.links_by_id[1].available is False
    assert pm.peers[1].route == 0


def test_three_client_session_builds_per_peer_state():
    config = PlayerManagerConfig(
        client_id=0,
        links=[LinkSpec(0, (0, 1), 250), LinkSpec(1, (0, 2), 250)])
    sent = []
    pm = PlayerManager(config, Spy(), lambda link, data: sent.append(link))
    pm.start_session([PeerCapabilities(1), PeerCapabilities(2)], 0)
    assert list(pm.peers) == [1, 2]
    assert [peer.route for peer in pm.peers.values()] == [0, 1]
    assert sorted(sent) == [0, 1]   # one session ping per peer link


def test_critical_proximity_holds_only_for_the_peer_within_the_radius():
    """Client 0 owns entity 10, peers 1 and 2 own entities 11 and 12. Entity
    11 is exactly at the 5 m radius of entity 10 (the bound is inclusive),
    entity 12 just outside it; neither peer flags its updates critical."""
    config = PlayerManagerConfig(
        client_id=0,
        links=[LinkSpec(0, (0, 1), 250), LinkSpec(1, (0, 2), 250)],
        local_entities=(10,), entity_owner={10: 0, 11: 1, 12: 2},
        policies=PolicySet(critical_proximity_radius_m=5.0))
    spy = Spy()
    pm = PlayerManager(config, spy, lambda link, data: None)
    pm.start_session([PeerCapabilities(1), PeerCapabilities(2)], 0)
    spy.local[10] = EntityKinematics((0.0, 0.0), (0.0, 0.0), 100)
    pm.tick(100)

    def proximity(peer):
        return pm._critical_proximity(pm.peers[peer],
                                      pm._local_proximity())

    assert (proximity(1), proximity(2)) == (False, False)
    pm.on_network_message(
        encode(state(100, sender=1, entity=11, pos=(3.0, 4.0))), 150, 0)
    pm.on_network_message(
        encode(state(100, sender=2, entity=12, pos=(5.0, 0.1))), 150, 1)
    assert proximity(1) is True
    assert proximity(2) is False


def test_queue_then_drop_when_all_links_down():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            heartbeat_ms=50)
    pm.start_session([PeerCapabilities(1)], 0)
    pm.on_link_change(0, False, 60)
    base_sent = len(sent)
    for t in range(100, 1450, 50):
        spy.local[3] = EntityKinematics((0.0, 0.0), (0.0, 0.0), t)
        pm.tick(t)
    assert len(sent) == base_sent            # everything queued or expired
    # expiry is continuous: by tick 1400 the entries queued before 400 ms
    # have already aged out of the 1000 ms budget
    assert len(pm._pending[1]) == len(range(400, 1450, 50))
    assert pm.counters.queue_drops == len(range(100, 400, 50))
    pm.on_link_change(0, True, 1450)
    # restoring the link drops what aged out meanwhile and flushes the rest
    assert pm.counters.queue_drops == len(range(100, 450, 50))
    assert len(sent) == base_sent + len(range(450, 1450, 50))
    assert 1 not in pm._pending       # only peers with frames queued


def relay_and_direct_pm():
    """Client 0 with a relay (link 0, the default route) and a direct link
    (link 1) to peer 1, overlay on, 500 ms route dwell."""
    config = PlayerManagerConfig(
        client_id=0,
        links=[LinkSpec(0, (0, 1), 250),
               LinkSpec(1, (0, 1), 40, kind=LinkKind.DIRECT)],
        policies=PolicySet(route_hysteresis_ms=500),
        toggles=Toggles(overlay=True))
    sent = []
    pm = PlayerManager(config, Spy(), lambda link, data: sent.append(link))
    pm.start_session([PeerCapabilities(1)], 0)
    return pm, sent


def test_failover_counted_as_a_route_switch():
    pm, _ = relay_and_direct_pm()
    assert pm.peers[1].route == 0
    pm.on_link_change(0, False, 700)
    assert (pm.peers[1].route, pm.peers[1].switched_at) == (1, 700)
    assert (pm.counters.route_switches, pm.counters.route_failovers) == (1, 1)


def test_failover_inside_dwell_window_is_same_tick():
    """The dwell only limits quality-driven switches: a chosen link that
    goes down 100 ms after the last switch still fails over at once."""
    pm, sent = relay_and_direct_pm()
    assert pm.peers[1].switched_at == 0
    pm.on_link_change(0, False, 100)
    assert pm.peers[1].route == 1
    assert pm.peers[1].switched_at == 100
    sent.clear()
    pm.send_event(3, EventKind.FIRE, b"\x00" * 8, 100)
    assert sent == [1]


def test_change_to_unchosen_link_keeps_route():
    pm, _ = relay_and_direct_pm()
    peer = pm.peers[1]
    pm.on_link_change(1, False, 50)
    assert (peer.route, peer.switched_at) == (0, 0)
    pm.on_link_change(1, True, 60)
    assert (peer.route, peer.switched_at) == (0, 0)
    assert pm.peers[1] is peer
    assert (pm.counters.route_switches, pm.counters.route_failovers) == (0, 0)


def test_peer_with_no_link_has_no_route_and_gets_nothing():
    """A peer that no link connects us to keeps route -1: the fan-out
    passes it by and queues nothing for it, and its idle ping only marks
    it pinged."""
    config = PlayerManagerConfig(client_id=0, links=[LinkSpec(0, (0, 1), 250)],
                                 toggles=Toggles(overlay=True))
    sent = []
    pm = PlayerManager(config, Spy(), lambda link, data: sent.append(link))
    pm.start_session([PeerCapabilities(2), PeerCapabilities(1)], 0)
    assert [(p, peer.route) for p, peer in pm.peers.items()] == [(1, 0),
                                                                 (2, -1)]
    assert pm.peers[2].links == []
    assert sent == [0]    # the session ping, to peer 1
    sent.clear()
    pm.send_event(3, EventKind.FIRE, b"\x00" * 8, 100)
    assert sent == [0]
    assert pm._pending == {}
    sent.clear()
    pm.tick(1000)    # both peers quiet for idle_ping_ms
    assert sent == [0]
    assert [peer.quiet_since for peer in pm.peers.values()] == [1000, 1000]


def test_route_dwell_trace_per_ms(monkeypatch):
    """Proximity (peer 1's entity 11 within 5 m of local entity 10) picks
    the direct link at t=1000; proximity ends at t=1200; the switch back
    waits for the 500 ms dwell: still direct through 1499, relay at 1500.
    Inside the dwell the route chooser is not asked."""
    config = PlayerManagerConfig(
        client_id=0,
        links=[LinkSpec(0, (0, 1), 250),
               LinkSpec(1, (0, 1), 40, kind=LinkKind.DIRECT)],
        local_entities=(10,), entity_owner={10: 0, 11: 1},
        policies=PolicySet(route_hysteresis_ms=500,
                           critical_proximity_radius_m=5.0),
        toggles=Toggles(overlay=True))
    spy, sent = Spy(), []
    pm = PlayerManager(config, spy, lambda link, data: sent.append(link))
    pm.start_session([PeerCapabilities(1)], 0)
    spy.local[10] = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    pm.tick(0)
    # seed the estimates: 250 ms on the relay, 40 ms on the direct link
    pm.on_network_message(
        encode(state(710, sender=1, entity=11, pos=(3.0, 4.0))), 960, 0)
    pm.on_network_message(
        encode(state(960, seq=2, sender=1, entity=11, pos=(3.0, 4.0))),
        1000, 1)
    assert pm.estimator.estimates == {0: 250.0, 1: 40.0}
    peer = pm.peers[1]
    assert (peer.route, peer.switched_at) == (0, 0)

    asked = []
    choose = player.select_route
    monkeypatch.setattr(player, "select_route",
                        lambda *args: asked.append(now) or choose(*args))
    now = 1000
    sent.clear()
    pm._fan_out(b"frame", now)
    assert sent == [1]
    assert (peer.route, peer.switched_at) == (1, 1000)
    for now in range(1001, 1500):
        if now == 1200:
            pm.on_network_message(encode(state(
                1160, seq=3, sender=1, entity=11, pos=(100.0, 0.0))), now, 1)
        sent.clear()
        pm._fan_out(b"frame", now)
        assert sent == [1], f"flapped early at {now}"
    now = 1500
    sent.clear()
    pm._fan_out(b"frame", now)
    assert sent == [0]
    assert (peer.route, peer.switched_at) == (0, 1500)
    assert asked == [1000, 1500]
    assert (pm.counters.route_switches, pm.counters.route_failovers) == (2, 0)


# 2-3 links to one peer, each a relay or a direct link, up or down at start
_PEER_LINKS = st.lists(st.tuples(st.sampled_from(list(LinkKind)),
                                 st.booleans()), min_size=2, max_size=3)
# Each step advances the clock, then changes a link, hands frames to
# _fan_out and ticks, or hears the peer on a link with some delay (which
# moves that link's estimate, and so route choice and failover targets).
_ROUTE_STEPS = st.lists(st.tuples(st.integers(0, 700), st.one_of(
    st.tuples(st.just("link"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("send"), st.integers(0, 3)),
    st.tuples(st.just("hear"), st.integers(0, 2), st.integers(0, 300)))),
    max_size=30)


@given(_PEER_LINKS, st.booleans(), _ROUTE_STEPS)
def test_route_sits_on_a_down_link_only_while_no_link_is_up(rows, overlay,
                                                            steps):
    """After every step: if a link to the peer is up, the route is on an
    up link and nothing is queued; every frame handed to _fan_out was sent
    once, on an up link and in order, or is still queued, or was counted as
    a queue drop (dropped frames are older than queued ones); each link
    change makes at most one switch, a failover, and every other switch
    happens at a fan-out with overlay on; and the peer's kept link
    partition is that of its links."""
    links = [LinkSpec(i, (0, 1), 250, kind=kind, available=up)
             for i, (kind, up) in enumerate(rows)]
    config = PlayerManagerConfig(
        client_id=0, links=links,
        policies=PolicySet(route_hysteresis_ms=500),
        toggles=Toggles(overlay=overlay))
    frames, sent = {}, []

    def send(link_id, data):
        if data in frames:
            assert pm.links_by_id[link_id].available
            sent.append(frames[data])

    pm = PlayerManager(config, Spy(), send)
    pm.start_session([PeerCapabilities(1)], 0)
    now, seq = 0, 0

    def check():
        peer = pm.peers[1]
        assert peer.partition == partition(peer.links)
        queued = [frames[data] for data, _ in pm._pending.get(1, ())]
        if any(l.available for l in peer.links):
            assert pm.links_by_id[peer.route].available
            assert queued == []
        assert sent == sorted(set(sent))
        assert queued == sorted(queued)
        dropped = set(frames.values()) - set(sent) - set(queued)
        assert not set(sent) & set(queued)
        assert len(dropped) == pm.counters.queue_drops
        assert not queued or not dropped or max(dropped) < min(queued)

    check()
    for dt, step in steps:
        now += dt
        switches = pm.counters.route_switches
        failovers = pm.counters.route_failovers
        if step[0] == "link":
            pm.on_link_change(step[1] % len(links), step[2], now)
        elif step[0] == "send":
            for _ in range(step[1]):
                data = b"frame %d" % len(frames)
                frames[data] = len(frames)
                pm._fan_out(data, now)
            pm.tick(now)
        else:
            seq += 1
            heard = state(max(0, now - step[2]), seq=seq, sender=1, entity=9)
            pm.on_network_message(encode(heard), now, step[1] % len(links))
        # every failover happens at a link change, every other switch at a
        # fan-out with overlay on
        moved = (pm.counters.route_switches - switches,
                 pm.counters.route_failovers - failovers)
        if step[0] == "link":
            assert moved in ((0, 0), (1, 1))
        elif step[0] == "send" and overlay:
            assert moved[1] == 0
        else:
            assert moved == (0, 0)
        check()


def test_sender_side_lag_buffers_own_events():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            lag=400, sender_side_lag=True)
    pm.start_session([PeerCapabilities(1)], 0)
    spy.local[3] = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    pm.send_event(3, EventKind.FIRE, b"\x00" * 8, 1000)
    assert spy.events == []           # transmitted but not yet played out
    pm.tick(1399)
    assert spy.events == []
    pm.tick(1400)
    assert [m.timestamp for m in spy.events] == [1000]


def test_sender_side_lag_disabled_plays_out_immediately():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            lag=400, sender_side_lag=False)
    pm.start_session([PeerCapabilities(1)], 0)
    pm.send_event(3, EventKind.FIRE, b"\x00" * 8, 1000)
    assert [m.timestamp for m in spy.events] == [1000]


def test_rollback_scope_events_leaves_states_alone():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(encode(state(200, seq=1)), 205, 0)
    pm.on_network_message(encode(state(100, seq=2)), 206, 0)
    assert pm.counters.rollbacks == 0
    assert len(spy.states) == 2
    # the stale update must not regress the displayed position: it is
    # still the prediction from the ts-200 update
    assert pm.displayed_position(7, 300) == (1.1, 1.0)


def test_late_state_reaches_game_once_as_displayed_position_now():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(encode(state(200, seq=1)), 205, 0)
    pm.on_network_message(encode(state(100, seq=2)), 206, 0)
    assert pm.counters.rollbacks == 0
    assert spy.undone == []
    assert len(spy.states) == 2
    entity_id, kin = spy.states[1]
    assert (entity_id, kin.at) == (7, 206)
    assert kin.pos == pm.displayed_position(7, 206)


def test_late_event_undoes_only_newer_events_and_replays_no_state():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    arrivals = [state(100, seq=1), event(110, seq=2), state(120, seq=3),
                event(130, seq=4), state(140, seq=5), event(150, seq=6)]
    for msg in arrivals:
        pm.on_network_message(encode(msg), msg.timestamp + 5, 0)
    states_before = list(spy.states)
    pm.on_network_message(encode(event(125, seq=7)), 160, 0)
    assert pm.counters.rollbacks == 1
    assert [m.timestamp for m in spy.undone] == [150, 130]
    assert [m.timestamp for m in spy.events] == [110, 130, 150, 125, 130, 150]
    assert spy.states == states_before


def blending_pm(**overrides):
    """make_pm with a 200 ms convergence window and no receiver-side lag,
    so each frame is applied on arrival."""
    pm, spy, sent = make_pm(receiver_side_lag=False, **overrides)
    pm.config.policies.default = ClassPolicy(threshold_m=0.5,
                                             convergence_ms=200)
    pm.start_session([PeerCapabilities(0)], 0)
    return pm, spy


def test_each_applied_update_evaluates_the_display_once():
    pm, spy = blending_pm()
    calls = []
    displayed_position = pm.displayed_position

    def counting(entity_id, now):
        calls.append(now)
        return displayed_position(entity_id, now)

    pm.displayed_position = counting
    pm.on_network_message(encode(state(100, seq=1)), 105, 0)    # first
    pm.on_network_message(encode(state(200, seq=2, pos=(3.0, 1.0))), 205, 0)
    pm.on_network_message(encode(state(150, seq=3)), 210, 0)    # late
    assert pm.counters.rollbacks == 0
    assert len(spy.states) == 3
    assert calls == [105, 205, 210]


def test_zero_window_evaluates_the_display_once_per_epoch():
    """A zero convergence window snaps: an update that starts an epoch keeps
    no snapshot, and the display is evaluated once for the game."""
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    calls = []
    displayed_position = pm.displayed_position

    def counting(entity_id, now):
        calls.append(now)
        return displayed_position(entity_id, now)

    pm.displayed_position = counting
    pm.on_network_message(encode(state(100, seq=1)), 105, 0)    # first
    pm.on_network_message(encode(state(200, seq=2, pos=(3.0, 1.0))), 205, 0)
    pm.on_network_message(encode(state(300, seq=3, pos=(5.0, 1.0))), 305, 0)
    assert calls == [105, 205, 305]
    assert pm._views[7].snapshot is None
    assert spy.states[-1][1].pos == (5.0 + 0.005, 1.0)


def test_late_older_update_keeps_the_held_blend():
    pm, spy = blending_pm()
    pm.on_network_message(encode(state(100, seq=1, pos=(0.0, 0.0))), 100, 0)
    pm.on_network_message(encode(state(200, seq=2, pos=(4.0, 0.0))), 200, 0)
    held = pm._views[7]
    assert (held.epoch_start, held.snapshot) == (200, (0.1, 0.0))
    # the late ts-150 update is older than the held ts-200 one
    pm.on_network_message(encode(state(150, seq=3, pos=(9.0, 0.0))), 300, 0)
    assert pm.counters.rollbacks == 0
    assert len(spy.states) == 3
    view = pm._views[7]
    assert view.corrected == held.corrected
    assert (view.epoch_start, view.snapshot) == (200, (0.1, 0.0))
    assert pm.displayed_position(7, 300) == spy.states[-1][1].pos


def applied(pm, spy, msg, now):
    """Deliver msg at now; return the position the game got, after checking
    it is the displayed position at now (the contract of
    GameCallbacks.apply_remote_state)."""
    pm.on_network_message(encode(msg), now, 0)
    entity_id, kin = spy.states[-1]
    assert (entity_id, kin.vel, kin.at) == (msg.entity_id, msg.vel, now)
    assert kin.pos == pm.displayed_position(entity_id, now)
    return kin.pos


def test_game_gets_the_displayed_position_in_every_apply_case():
    pm, spy = blending_pm()
    first = state(100, seq=1, pos=(0.0, 0.0), vel=(10.0, 0.0))
    assert applied(pm, spy, first, 150) == (0.5, 0.0)
    # a blend starts from the position shown when the update arrives
    blend = state(200, seq=2, pos=(5.0, 0.0), vel=(0.0, 0.0))
    assert applied(pm, spy, blend, 250) == (1.5, 0.0)
    # an older update leaves the view, a tenth of the way through the blend
    older = state(120, seq=3, pos=(9.0, 9.0), vel=(0.0, 0.0))
    assert applied(pm, spy, older, 270) == (1.5 + 3.5 * 0.1, 0.0)
    # a sender clock ahead of ours: the wire position, not a blend
    ahead = state(400, seq=4, pos=(7.0, 0.0), vel=(1.0, 0.0))
    assert applied(pm, spy, ahead, 300) == (7.0, 0.0)

    pm, spy, _ = make_pm(receiver_side_lag=False)     # zero window snaps
    pm.start_session([PeerCapabilities(0)], 0)
    applied(pm, spy, first, 150)
    assert applied(pm, spy, blend, 250) == (5.0, 0.0)


def test_each_data_frame_evaluates_its_mode_once():
    pm, spy, _ = make_pm(regions=[Rect(10, -5, 20, 5)])
    pm.start_session([PeerCapabilities(0)], 0)
    calls = []
    mode_for = pm.modes.mode_for

    def counting(*args):
        calls.append(args)
        return mode_for(*args)

    pm.modes.mode_for = counting
    pm.on_network_message(encode(state(1000, pos=(15.0, 0.0))), 1250, 0)
    assert len(calls) == 1
    assert spy.modes == [(7, ConsistencyMode.STRONG)]
    pm.on_network_message(encode(event(1010, seq=2)), 1260, 0)
    assert len(calls) == 2


def test_ping_lost_on_the_wire_expires_after_history_window():
    pm, spy, sent = make_pm()
    assert pm.log.history_window_ms == 2000
    pm.start_session([PeerCapabilities(0)], 0)
    lost = decode(sent[0][1])
    pm.tick(2000)
    assert lost.nonce in pm._outstanding_pings    # exactly at the horizon
    pm.tick(2050)
    assert lost.nonce not in pm._outstanding_pings
    assert all(ping.timestamp >= 50
               for ping, _ in pm._outstanding_pings.values())
    pong = PongMessage(0, lost.nonce, 2060, lost.timestamp)
    pm.on_network_message(encode(pong), 2100, 0)
    assert pm.estimator.estimates == {}


def test_late_pong_inside_history_window_is_observed():
    pm, spy, sent = make_pm()
    pm.start_session([PeerCapabilities(0)], 0)
    ping = decode(sent[0][1])
    for t in range(50, 1951, 50):
        pm.tick(t)
    pong = PongMessage(0, ping.nonce, 1000, ping.timestamp)
    pm.on_network_message(encode(pong), 1990, 0)
    assert ping.nonce not in pm._outstanding_pings
    assert pm.estimator.estimates[0] == 995.0   # (1990 - 0 + 1) // 2


def test_idle_pings_when_no_traffic_flows():
    pm, spy, sent = make_pm(client_id=1, peer=0, idle_ping_ms=1000)
    pm.start_session([PeerCapabilities(0)], 0)
    for t in range(50, 2001, 50):
        pm.tick(t)
    pings = [decode(d) for _, d in sent]
    # one at session start, then one per idle second
    assert len(pings) == 3
    assert [p.timestamp for p in pings] == [0, 1000, 2000]


def test_traffic_suppresses_idle_pings():
    pm, spy, sent = make_pm(client_id=1, peer=0, idle_ping_ms=1000)
    pm.start_session([PeerCapabilities(0)], 0)
    for t in range(50, 2001, 50):
        if t % 500 == 0:
            seq = t // 500
            pm.on_network_message(encode(state(t - 250, seq=seq)), t, 0)
        pm.tick(t)
    pings = [d for _, d in sent if decode(d).__class__.__name__ == "PingMessage"]
    assert len(pings) == 1   # only the session-start probe


# Each step advances the clock, then ticks, hears a data frame from a peer,
# or answers that peer's latest unanswered ping with a pong.
_PING_STEPS = st.lists(st.tuples(st.integers(0, 400),
                                 st.sampled_from(["tick", "hear", "pong"]),
                                 st.integers(0, 3)), max_size=40)


@given(st.integers(2, 4), st.sampled_from([50, 100, 250]), _PING_STEPS)
def test_idle_pings_follow_the_per_tick_rule(peers, idle_ping_ms, steps):
    """Client 0 has one relay link to each of its peers. After every step
    the pings sent are exactly those of a test of every peer on every tick:
    a tick pings, in peer order, each peer for which now - max(last data or
    accepted pong from it (0 if none), last ping to it) >= idle_ping_ms. A
    pong is accepted unless a tick has since expired its ping (older than
    the history window at that tick) or it was answered already."""
    peer_ids = range(1, peers + 1)
    config = PlayerManagerConfig(
        client_id=0, links=[LinkSpec(p - 1, (0, p), 250) for p in peer_ids],
        policies=PolicySet(idle_ping_ms=idle_ping_ms))
    pings = []    # (time, peer, nonce) per ping sent

    def send(link_id, data):
        msg = decode(data)
        if isinstance(msg, PingMessage):
            pings.append((msg.timestamp, link_id + 1, msg.nonce))

    pm = PlayerManager(config, Spy(), send)
    window = pm.log.history_window_ms
    pm.start_session([PeerCapabilities(p) for p in peer_ids], 0)
    last_activity, last_ping = {}, {p: 0 for p in peer_ids}
    want = [(0, p) for p in peer_ids]
    answered, now, last_tick, seq = set(), 0, None, 0
    for dt, action, which in steps:
        now += dt
        peer = 1 + which % peers
        if action == "tick":
            pm.tick(now)
            last_tick = now
            for p in peer_ids:
                quiet = max(last_activity.get(p, 0), last_ping[p])
                if now - quiet >= idle_ping_ms:
                    last_ping[p] = now
                    want.append((now, p))
        elif action == "hear":
            seq += 1
            pm.on_network_message(encode(state(now, seq=seq, sender=peer,
                                               entity=peer)), now, peer - 1)
            last_activity[peer] = now
        else:
            open_pings = [(at, nonce) for at, p, nonce in pings
                          if p == peer and nonce not in answered]
            if open_pings:
                at, nonce = open_pings[-1]
                answered.add(nonce)
                pong = PongMessage(peer, nonce, now, at)
                pm.on_network_message(encode(pong), now, peer - 1)
                if last_tick is None or at >= last_tick - window:
                    last_activity[peer] = now
        assert [(at, p) for at, p, _ in pings] == want


def test_convergence_blends_toward_new_correction():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.config.policies.default = ClassPolicy(threshold_m=0.5,
                                             convergence_ms=200)
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(encode(state(100, seq=1, pos=(0.0, 0.0),
                                       vel=(0.0, 0.0))), 100, 0)
    assert pm.displayed_position(7, 100) == (0.0, 0.0)
    pm.on_network_message(encode(state(200, seq=2, pos=(10.0, 0.0),
                                       vel=(0.0, 0.0))), 200, 0)
    assert pm.displayed_position(7, 200) == (0.0, 0.0)    # epoch start
    assert pm.displayed_position(7, 300) == (5.0, 0.0)    # halfway
    assert pm.displayed_position(7, 400) == (10.0, 0.0)   # complete
    assert pm.displayed_position(7, 900) == (10.0, 0.0)   # exact thereafter
