"""Player manager: pipeline order, callback contracts, send gating, and
route/queue behavior. These tests drive the manager by hand through a
captured transport; full-simulator integration lives in test_runner.py."""


from gamesync.deadreckoning import DeadReckoningPolicy, EntityKinematics
from gamesync.locallag import LagPolicy
from gamesync.overlay import LinkKind, LinkSpec, PeerCapabilities
from gamesync.pdu import (EventKind, EventMessage, PongMessage, StateUpdate,
                          decode, encode)
from gamesync.player import GameCallbacks, PlayerManager, PlayerManagerConfig
from gamesync.regions import ConsistencyMode, Rect, RegionSet


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


def make_pm(client_id=1, peer=0, lag=500, local_entities=(), regions=None,
            **overrides):
    sent = []
    region_set = RegionSet()
    for region in regions or ():
        region_set.add(region)
    config = PlayerManagerConfig(
        client_id=client_id,
        dr_policy=DeadReckoningPolicy(threshold_m=0.5, convergence_ms=0),
        lag_policy=LagPolicy(default_lag_ms=lag),
        regions=region_set,
        links=[LinkSpec(0, (client_id, peer), 250)],
        local_entities=local_entities,
        **overrides)
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


def test_late_tagged_message_goes_straight_to_rollback():
    pm, spy, _ = make_pm(lag=100)
    pm.start_session([PeerCapabilities(0)], 0)
    msg = state(1000)
    pm.on_network_message(encode(msg), 1500, 0)   # due 1100 < now
    assert pm.counters.late_messages == 1
    assert len(spy.states) == 1                   # played out immediately


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


def test_strong_mode_tightens_threshold():
    pm, spy, sent = make_pm(client_id=0, peer=1, local_entities=(3,),
                            regions=[Rect(-100, -100, 100, 100)],
                            heartbeat_ms=10**9,
                            strong_threshold_scale=0.25)
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
    assert pm.estimator.estimate((0, 0)) == 100.0   # (200 - 0 + 1) // 2


def test_unknown_direct_address_disables_direct_links():
    config = PlayerManagerConfig(
        client_id=0,
        links=[LinkSpec(0, (0, 1), 250),
               LinkSpec(1, (0, 1), 40, kind=LinkKind.DIRECT)])
    pm = PlayerManager(config, Spy(), lambda link, data: None)
    pm.start_session([PeerCapabilities(1, direct_address_known=False)], 0)
    assert pm.links_by_id[1].available is False
    assert pm.route_to(1) == 0


def test_three_client_session_builds_per_peer_state():
    config = PlayerManagerConfig(
        client_id=0,
        links=[LinkSpec(0, (0, 1), 250), LinkSpec(1, (0, 2), 250)])
    sent = []
    pm = PlayerManager(config, Spy(), lambda link, data: sent.append(link))
    pm.start_session([PeerCapabilities(1), PeerCapabilities(2)], 0)
    assert pm.peers == [1, 2]
    assert set(pm.routes) == {1, 2}
    assert sorted(sent) == [0, 1]   # one session ping per peer link


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
    assert len(pm._pending[1]) == 0


def relay_and_direct_pm():
    """Client 0 with a relay (link 0, the default route) and a direct link
    (link 1) to peer 1, overlay on, 500 ms route dwell."""
    config = PlayerManagerConfig(
        client_id=0,
        links=[LinkSpec(0, (0, 1), 250),
               LinkSpec(1, (0, 1), 40, kind=LinkKind.DIRECT)],
        overlay_enabled=True, route_hysteresis_ms=500)
    sent = []
    pm = PlayerManager(config, Spy(), lambda link, data: sent.append(link))
    pm.start_session([PeerCapabilities(1)], 0)
    return pm, sent


def test_failover_entry_marked_in_switch_log():
    pm, _ = relay_and_direct_pm()
    assert pm.route_to(1) == 0
    pm.on_link_change(0, False, 700)
    assert pm.route_to(1) == 1
    assert pm.switch_log == [(700, 1, 0, 1, True)]


def test_failover_inside_dwell_window_is_same_tick():
    """The dwell only limits quality-driven switches: a chosen link that
    goes down 100 ms after the last switch still fails over at once."""
    pm, sent = relay_and_direct_pm()
    assert pm.routes[1].last_switch_at == 0
    pm.on_link_change(0, False, 100)
    assert pm.routes[1].chosen_link == 1
    assert pm.routes[1].last_switch_at == 100
    sent.clear()
    pm.send_event(3, EventKind.FIRE, b"\x00" * 8, 100)
    assert sent == [1]


def test_change_to_unchosen_link_keeps_route():
    pm, _ = relay_and_direct_pm()
    before = pm.routes[1]
    pm.on_link_change(1, False, 50)
    assert pm.routes[1] is before
    pm.on_link_change(1, True, 60)
    assert pm.routes[1] is before
    assert pm.switch_log == []


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
    pm, spy, _ = make_pm(receiver_side_lag=False, rollback_scope="events")
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(encode(state(200, seq=1)), 205, 0)
    pm.on_network_message(encode(state(100, seq=2)), 206, 0)
    assert pm.counters.rollbacks == 0
    assert len(spy.states) == 2
    # the stale update must not regress the displayed position: it is
    # still the prediction from the ts-200 update
    assert pm.displayed_position(7, 300) == (1.1, 1.0)


def test_rolled_back_state_reaches_game_as_displayed_position_now():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.start_session([PeerCapabilities(0)], 0)
    pm.on_network_message(encode(state(200, seq=1)), 205, 0)
    pm.on_network_message(encode(state(100, seq=2)), 206, 0)
    assert pm.counters.rollbacks == 1
    replays = spy.states[1:]
    assert len(replays) == 2
    for entity_id, kin in replays:
        assert entity_id == 7
        assert kin.at == 206
        assert kin.pos == pm.displayed_position(7, 206)


def blending_pm(**overrides):
    """make_pm with a 200 ms convergence window and no receiver-side lag,
    so each frame is applied on arrival."""
    pm, spy, sent = make_pm(receiver_side_lag=False, **overrides)
    pm.config.dr_policy = DeadReckoningPolicy(threshold_m=0.5,
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
    pm.on_network_message(encode(state(150, seq=3)), 210, 0)    # replays 150, 200
    assert pm.counters.rollbacks == 1
    assert len(spy.states) == 4
    assert calls == [105, 205, 210, 210]


def test_replaying_the_held_update_keeps_its_blend():
    pm, spy = blending_pm()
    pm.on_network_message(encode(state(100, seq=1, pos=(0.0, 0.0))), 100, 0)
    pm.on_network_message(encode(state(200, seq=2, pos=(4.0, 0.0))), 200, 0)
    held = pm._views[7]
    assert (held.epoch_start, held.snapshot) == (200, (0.1, 0.0))
    # the late ts-150 update replays 150, then the held ts-200 update
    pm.on_network_message(encode(state(150, seq=3, pos=(9.0, 0.0))), 300, 0)
    assert pm.counters.rollbacks == 1
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
    pm, spy = blending_pm(rollback_scope="events")
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
    pm, spy, sent = make_pm(history_window_ms=2000)
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
    assert pm.estimator.estimate((0, 0)) is None


def test_late_pong_inside_history_window_is_observed():
    pm, spy, sent = make_pm(history_window_ms=2000)
    pm.start_session([PeerCapabilities(0)], 0)
    ping = decode(sent[0][1])
    for t in range(50, 1951, 50):
        pm.tick(t)
    pong = PongMessage(0, ping.nonce, 1000, ping.timestamp)
    pm.on_network_message(encode(pong), 1990, 0)
    assert ping.nonce not in pm._outstanding_pings
    assert pm.estimator.estimate((0, 0)) == 995.0   # (1990 - 0 + 1) // 2


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


def test_convergence_blends_toward_new_correction():
    pm, spy, _ = make_pm(receiver_side_lag=False)
    pm.config.dr_policy = DeadReckoningPolicy(threshold_m=0.5,
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
