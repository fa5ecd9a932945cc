"""Route selection and dwell-time hysteresis. Failover is driven through
PlayerManager.on_link_change in test_player.py."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamesync.overlay import (LinkKind, LinkSpec, NoAvailableLink,
                              RouteDecision, best_link, default_route,
                              select_route)


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


# -- the rewritten route choice against the earlier list-and-key versions --

def _min_key_best_link(candidates, estimates):
    def key(link):
        est = estimates.get(link.link_id)
        return (est if est is not None else float("inf"), link.link_id)
    return min(candidates, key=key)


def _list_select_route(peer, links, latency_estimates, critical_proximity,
                       decision, now, hysteresis_ms):
    available = [l for l in links if l.available]
    if not available:
        raise NoAvailableLink(f"no available link to peer {peer}")
    if critical_proximity and any(l.kind is LinkKind.DIRECT for l in available):
        desired = _min_key_best_link(available, latency_estimates).link_id
    else:
        relays = [l for l in available if l.kind is LinkKind.RELAY]
        desired = _min_key_best_link(relays or available,
                                     latency_estimates).link_id
    if desired == decision.chosen_link:
        return decision
    if now - decision.last_switch_at < hysteresis_ms:
        return decision
    return RouteDecision(desired, now)


# A few estimate values, so that ties are common, and None for no estimate.
_ESTIMATES = st.one_of(st.none(), st.sampled_from([20.0, 40.0, 40.0, 250.0]),
                       st.floats(0.0, 500.0))
_LINKS = st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from(list(LinkKind)),
              st.booleans(), _ESTIMATES),
    max_size=6, unique_by=lambda t: t[0])


def _build(rows):
    links = [LinkSpec(lid, (0, 1), 10, kind=kind, available=up)
             for lid, kind, up, _ in rows]
    estimates = {lid: est for lid, _, _, est in rows if est is not None}
    return links, estimates


@given(_LINKS)
def test_best_link_matches_min_over_estimate_then_id(rows):
    links, estimates = _build(rows)
    alive = [l for l in links if l.available]
    for candidates in (links, alive):
        if not candidates:
            with pytest.raises(ValueError):
                best_link(candidates, estimates)
            with pytest.raises(ValueError):
                _min_key_best_link(candidates, estimates)
        else:
            assert (best_link(candidates, estimates)
                    is _min_key_best_link(candidates, estimates))


@given(_LINKS, st.booleans(), st.integers(0, 12), st.integers(0, 2000),
       st.integers(0, 2000), st.sampled_from([0, 500]))
def test_select_route_matches_the_list_version(rows, critical, chosen,
                                               last_switch, now, dwell):
    links, estimates = _build(rows)
    decision = RouteDecision(chosen, last_switch)
    args = (1, links, estimates, critical, decision, now, dwell)
    try:
        want = _list_select_route(*args)
    except NoAvailableLink:
        with pytest.raises(NoAvailableLink):
            select_route(*args)
        return
    got = select_route(*args)
    assert got == want
    assert (got is decision) == (want is decision)
