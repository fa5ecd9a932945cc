"""Route selection. The dwell-time hysteresis is applied by
PlayerManager._fan_out, and failover is driven through
PlayerManager.on_link_change; both are tested in test_player.py."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamesync.overlay import (LinkKind, LinkSpec, NoAvailableLink,
                              best_link, default_route, partition,
                              select_route)


def relay(link_id=0, delay=250, available=True):
    return LinkSpec(link_id, (0, 1), delay, kind=LinkKind.RELAY,
                    available=available)


def direct(link_id=1, delay=40, available=True):
    return LinkSpec(link_id, (0, 1), delay, kind=LinkKind.DIRECT,
                    available=available)


def test_single_relay_only_option():
    links = partition([relay()])
    assert default_route(links, {}) == 0
    assert select_route(links, {0: 250.0}, False) == 0


def test_critical_proximity_picks_fast_direct():
    links = partition([relay(), direct()])
    assert select_route(links, {0: 250.0, 1: 40.0}, True) == 1


def test_without_proximity_relay_is_default():
    links = partition([relay(), direct()])
    assert select_route(links, {0: 250.0, 1: 40.0}, False) == 0


def test_no_available_link_raises():
    links = partition([relay(available=False)])
    with pytest.raises(NoAvailableLink):
        select_route(links, {}, False)
    with pytest.raises(NoAvailableLink):
        default_route(links, {})


def test_deterministic_tie_break_by_link_id():
    links = partition([direct(3, 40), direct(2, 40), relay(0, 250)])
    assert select_route(links, {0: 250.0, 2: 40.0, 3: 40.0}, True) == 2


def test_unknown_estimates_sort_last():
    links = partition([relay(0, 250), direct(1, 40)])
    # direct has no estimate yet: keep the measured relay
    assert select_route(links, {0: 250.0}, True) == 0


def test_chosen_link_always_available():
    links = [relay(0, 250, available=False), direct(1, 40)]
    for critical in (False, True):
        chosen = select_route(partition(links), {1: 40.0}, critical)
        assert next(l for l in links if l.link_id == chosen).available


# -- the rewritten route choice against the earlier list-and-key versions --

def _min_key_best_link(candidates, estimates):
    def key(link):
        est = estimates.get(link.link_id)
        return (est if est is not None else float("inf"), link.link_id)
    return min(candidates, key=key)


def _list_select_route(peer, links, latency_estimates, critical_proximity,
                       decision, now, hysteresis_ms):
    """decision is a route's (chosen link, last switch time)."""
    available = [l for l in links if l.available]
    if not available:
        raise NoAvailableLink(f"no available link to peer {peer}")
    if critical_proximity and any(l.kind is LinkKind.DIRECT for l in available):
        desired = _min_key_best_link(available, latency_estimates).link_id
    else:
        relays = [l for l in available if l.kind is LinkKind.RELAY]
        desired = _min_key_best_link(relays or available,
                                     latency_estimates).link_id
    chosen_link, last_switch_at = decision
    if desired == chosen_link:
        return decision
    if now - last_switch_at < hysteresis_ms:
        return decision
    return desired, now


def _dwell_then_select(links, latency_estimates, critical_proximity,
                       decision, now, hysteresis_ms):
    """select_route behind the dwell rule PlayerManager._fan_out applies: a
    route inside its dwell is not asked; past it, the route moves to the
    chosen link, and its dwell restarts, only when that link differs."""
    chosen_link, last_switch_at = decision
    if now - last_switch_at < hysteresis_ms:
        return decision
    chosen = select_route(partition(links), latency_estimates,
                          critical_proximity)
    if chosen == chosen_link:
        return decision
    return chosen, now


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
    decision = (chosen, last_switch)
    args = (estimates, critical, decision, now, dwell)
    try:
        want = _list_select_route(1, links, *args)
    except NoAvailableLink:
        with pytest.raises(NoAvailableLink):
            select_route(partition(links), estimates, critical)
        return
    got = _dwell_then_select(links, *args)
    assert got == want
    assert (got is decision) == (want is decision)
