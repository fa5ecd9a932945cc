"""Virtual time, one-way delay computation, and smoothed latency estimation.

The simulator supplies a global virtual clock, so one-way delay normally
comes straight from message timestamps. An RTT/2 probe is available as the
fallback for unsynchronized clocks. Estimates are kept per link and
re-learned continuously: every received data message and every pong
contributes a sample to the link it arrived on.
"""

from dataclasses import dataclass, field
from typing import Hashable, NamedTuple

DEFAULT_ALPHA = 0.125


class NonceMismatch(Exception):
    pass


class VirtualClock:
    """Monotone virtual-time reader with a per-client skew offset (ms)."""

    def __init__(self, offset: int = 0):
        self.offset = offset
        self._last = 0

    def read(self, global_ms: int) -> int:
        # Reads never go backwards, even if fed a stale global time.
        t = global_ms + self.offset
        if t < self._last:
            return self._last
        self._last = t
        return t


class DelayResult(NamedTuple):
    delay_ms: int
    clock_anomaly: bool


def delay_from_timestamp(msg_timestamp: int, receive_time: int) -> DelayResult:
    """One-way delay under synchronized clocks: receive - send, clamped >= 0.

    A negative raw difference is clamped to 0 and flagged as a clock anomaly
    rather than raised.
    """
    raw = receive_time - msg_timestamp
    if raw < 0:
        return DelayResult(0, True)
    return DelayResult(raw, False)


def rtt_probe(ping, pong, receive_time: int) -> int:
    """RTT/2 fallback estimate, rounded half-up to whole ms."""
    if pong.nonce != ping.nonce:
        raise NonceMismatch(f"pong nonce {pong.nonce:#x} != ping nonce {ping.nonce:#x}")
    rtt = receive_time - ping.timestamp
    if rtt < 0:
        rtt = 0
    return (rtt + 1) // 2


@dataclass
class LatencyEstimator:
    """Per-link EWMA of one-way delay samples.

    The first sample on a link initializes its estimate; afterwards
    estimate <- (1 - alpha) * estimate + alpha * sample. `estimates` maps
    each link id with a sample to its estimate; a link with none is absent,
    which is distinct from an estimate of 0.
    """

    alpha: float = DEFAULT_ALPHA
    estimates: dict = field(default_factory=dict)

    def observe(self, link_id: Hashable, delay_ms: int) -> float:
        if delay_ms < 0:
            raise ValueError("delay samples must be non-negative")
        prior = self.estimates.get(link_id)
        if prior is None:
            est = float(delay_ms)
        else:
            # Incremental form of (1 - alpha) * prior + alpha * sample: it
            # keeps the result inside [min, max] of the inputs even in float
            # arithmetic, where the expanded form can overshoot by an ulp.
            est = prior + (delay_ms - prior) * self.alpha
        self.estimates[link_id] = est
        return est

    def reset(self) -> None:
        self.estimates.clear()
