"""Route selection and dwell-time hysteresis. Failover is driven through
PlayerManager.on_link_change in test_player.py."""

import pytest

from gamesync.overlay import (LinkKind, LinkSpec, NoAvailableLink,
                              RouteDecision, default_route, select_route)


def relay(link_id=0, delay=250, available=True):
    return LinkSpec(link_id, (0, 1), delay, kind=LinkKind.RELAY,
                    available=available)


def direct(link_id=1, delay=40, available=True):
    return LinkSpec(link_id, (0, 1), delay, kind=LinkKind.DIRECT,
                    available=available)


def test_single_relay_only_option():
    links = [relay()]
    decision = RouteDecision(default_route(links, {}))
    out = select_route(1, links, {0: 250.0}, False, decision, 1000, 500)
    assert out.chosen_link == 0


def test_critical_proximity_picks_fast_direct():
    links = [relay(), direct()]
    decision = RouteDecision(0, last_switch_at=0)
    out = select_route(1, links, {0: 250.0, 1: 40.0}, True, decision, 1000,
                       500)
    assert out.chosen_link == 1
    assert out.last_switch_at == 1000


def test_without_proximity_relay_is_default():
    links = [relay(), direct()]
    decision = RouteDecision(0, last_switch_at=0)
    out = select_route(1, links, {0: 250.0, 1: 40.0}, False, decision, 1000,
                       500)
    assert out.chosen_link == 0


def test_hysteresis_trace_per_ms():
    """Direct chosen at t=1000; proximity ends at t=1200; the switch back
    waits for the 500 ms dwell: still direct through 1499, relay at 1500."""
    links = [relay(), direct()]
    decision = RouteDecision(0, last_switch_at=0)
    decision = select_route(1, links, {0: 250.0, 1: 40.0}, True, decision,
                            1000, 500)
    assert decision.chosen_link == 1 and decision.last_switch_at == 1000
    for t in range(1001, 1500):
        decision = select_route(1, links, {0: 250.0, 1: 40.0}, t < 1200,
                                decision, t, 500)
        assert decision.chosen_link == 1, f"flapped early at {t}"
    decision = select_route(1, links, {0: 250.0, 1: 40.0}, False, decision,
                            1500, 500)
    assert decision.chosen_link == 0
    assert decision.last_switch_at == 1500


def test_no_available_link_raises():
    links = [relay(available=False)]
    with pytest.raises(NoAvailableLink):
        select_route(1, links, {}, False, RouteDecision(0), 0, 500)


def test_deterministic_tie_break_by_link_id():
    links = [direct(3, 40), direct(2, 40), relay(0, 250)]
    decision = RouteDecision(0, last_switch_at=0)
    out = select_route(1, links, {0: 250.0, 2: 40.0, 3: 40.0}, True, decision,
                       5000, 500)
    assert out.chosen_link == 2


def test_unknown_estimates_sort_last():
    links = [relay(0, 250), direct(1, 40)]
    decision = RouteDecision(0, last_switch_at=0)
    # direct has no estimate yet: keep the measured relay
    out = select_route(1, links, {0: 250.0}, True, decision, 5000, 500)
    assert out.chosen_link == 0


def test_chosen_link_always_available():
    links = [relay(0, 250, available=False), direct(1, 40)]
    decision = RouteDecision(1, last_switch_at=0)
    for t in range(0, 3000, 50):
        decision = select_route(1, links, {1: 40.0}, False, decision, t, 500)
        assert next(l for l in links
                    if l.link_id == decision.chosen_link).available
