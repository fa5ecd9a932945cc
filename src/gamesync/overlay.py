"""Route selection among alternative links (server relay vs direct).

The relay path is the default. When both endpoints are in critical
proximity and a direct link is available, the route switches to the
available link with the lowest estimated delay. Quality-driven switches are
rate-limited by a dwell-time hysteresis; failover after a link loss is
immediate and exempt.
"""

from dataclasses import dataclass, replace
from enum import Enum


class NoAvailableLink(Exception):
    pass


class LinkKind(Enum):
    RELAY = "relay"
    DIRECT = "direct"


@dataclass
class LinkSpec:
    link_id: int
    endpoints: tuple[int, int]
    base_delay_ms: int
    jitter_ms: int = 0
    loss_prob: float = 0.0
    kind: LinkKind = LinkKind.RELAY
    available: bool = True

    def __post_init__(self):
        if self.base_delay_ms < 0 or self.jitter_ms < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be in [0, 1]")

    def other_endpoint(self, client_id: int) -> int:
        a, b = self.endpoints
        if client_id == a:
            return b
        if client_id == b:
            return a
        raise ValueError(f"client {client_id} not on link {self.link_id}")

    def connects(self, a: int, b: int) -> bool:
        return set(self.endpoints) == {a, b}


@dataclass(frozen=True)
class PeerCapabilities:
    peer_id: int
    direct_address_known: bool = True


@dataclass(frozen=True)
class RouteDecision:
    chosen_link: int
    last_switch_at: int = 0


def best_link(candidates, estimates):
    """The candidate link with the lowest estimated delay.

    Unknown estimates sort last; ties break on link_id for determinism.
    """
    def key(link):
        est = estimates.get(link.link_id)
        return (est if est is not None else float("inf"), link.link_id)
    return min(candidates, key=key)


def default_route(links, estimates) -> int:
    """Initial choice: best relay link, or best available link if no relay."""
    available = [l for l in links if l.available]
    if not available:
        raise NoAvailableLink("no available link")
    relays = [l for l in available if l.kind is LinkKind.RELAY]
    return best_link(relays or available, estimates).link_id


def select_route(peer: int, links, latency_estimates: dict,
                 critical_proximity: bool, decision: RouteDecision,
                 now: int, hysteresis_ms: int) -> RouteDecision:
    """Re-evaluate the route to a peer.

    links: every LinkSpec connecting us to the peer. In critical proximity
    with a direct option, picks the available link with the lowest estimated
    delay; otherwise returns to the relay default. Never switches within
    hysteresis_ms of the previous switch.
    """
    available = [l for l in links if l.available]
    if not available:
        raise NoAvailableLink(f"no available link to peer {peer}")
    if critical_proximity and any(l.kind is LinkKind.DIRECT for l in available):
        desired = best_link(available, latency_estimates).link_id
    else:
        relays = [l for l in available if l.kind is LinkKind.RELAY]
        desired = best_link(relays or available, latency_estimates).link_id
    if desired == decision.chosen_link:
        return decision
    if now - decision.last_switch_at < hysteresis_ms:
        return decision
    return replace(decision, chosen_link=desired, last_switch_at=now)
