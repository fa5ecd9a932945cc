"""Route selection among alternative links (server relay vs direct).

The relay path is the default. When both endpoints are in critical
proximity and a direct link is available, the route switches to the
available link with the lowest estimated delay. select_route only chooses
the link; the caller applies the dwell. Quality-driven switches are
rate-limited by a dwell-time hysteresis, so a manager asks only for a route
past its dwell; failover after a link loss is immediate and exempt.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


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
        for name in ("base_delay_ms", "jitter_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
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


_INF = float("inf")


def best_link(candidates, estimates):
    """The candidate link with the lowest estimated delay.

    Unknown estimates sort last; ties break on the lower link_id for
    determinism. This is the one place the order (estimate or infinity,
    link_id) is written. Raises ValueError on no candidates.
    """
    best = None
    for link in candidates:
        link_id = link.link_id
        est = estimates.get(link_id)
        if est is None:
            est = _INF
        if (best is None or est < best_est
                or (est == best_est and link_id < best_id)):
            best, best_est, best_id = link, est, link_id
    if best is None:
        raise ValueError("best_link() of no candidates")
    return best


class LinkPartition(NamedTuple):
    """A peer's links split in one pass: the available ones and the
    available relays, each in the order given, and whether an available
    direct link exists. A manager keeps one per peer and remakes it when a
    link to the peer changes, so route choice never splits links itself."""
    available: list
    relays: list
    direct_up: bool


def partition(links) -> LinkPartition:
    """Split a peer's links (every LinkSpec connecting us to it)."""
    available, relays, direct_up = [], [], False
    for link in links:
        if link.available:
            available.append(link)
            if link.kind is LinkKind.RELAY:
                relays.append(link)
            elif link.kind is LinkKind.DIRECT:
                direct_up = True
    return LinkPartition(available, relays, direct_up)


def default_route(links: LinkPartition, estimates) -> int:
    """Initial choice: best relay link, or best available link if no relay."""
    if not links.available:
        raise NoAvailableLink("no available link")
    return best_link(links.relays or links.available, estimates).link_id


def select_route(links: LinkPartition, latency_estimates: dict,
                 critical_proximity: bool) -> int:
    """The link a route to a peer should be on.

    links: the partition of every LinkSpec connecting us to the peer. In
    critical proximity with a direct option, picks the available link with
    the lowest estimated delay; otherwise returns to the relay default.
    The dwell is the caller's: it asks only for a route past its dwell.
    """
    available = links.available
    if not available:
        raise NoAvailableLink("no available link")
    if critical_proximity and links.direct_up:
        return best_link(available, latency_estimates).link_id
    return best_link(links.relays or available, latency_estimates).link_id
