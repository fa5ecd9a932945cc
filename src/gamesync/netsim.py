"""Deterministic discrete-event network simulator.

Links have a base delay, symmetric uniform jitter, and a loss probability.
All randomness flows through one seeded xorshift64* generator, so identical
seeds give identical event traces on every platform. The simulator owns the
global virtual clock; this is what makes the synchronized-clock assumption
of the consistency layer hold exactly.

Per send the generator is consumed in a fixed order: one 53-bit float draw
for loss, then (only if the link has jitter > 0) one integer draw
(next_u64 % (2*jitter + 1)) - jitter for the delay offset. Delivery is
clamped to at least now + 1 so causality is never instantaneous. FIFO is
deliberately NOT enforced per link: jitter can reorder deliveries, which is
what exercises the rollback path downstream.

Events due at the same virtual time run calls first, then deliveries, each
in the order they were scheduled. The heap key carries that rule, so a call
scheduled while the run goes (a tick rescheduling itself) still runs before
a delivery due at the same time that was sent earlier.
"""

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

from gamesync.overlay import LinkSpec
from gamesync.pdu import peek

# xorshift64* needs a nonzero state; seed 0 maps to this documented constant.
ZERO_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15

_U64 = (1 << 64) - 1
_RNG_MULT = 0x2545F4914F6CDD1D
_INV_2_53 = 2.0 ** -53


class UnknownLink(Exception):
    pass


class LinkUnavailable(Exception):
    pass


class EmptyQueue(Exception):
    pass


class InvariantViolation(Exception):
    """A runtime consistency check failed; run aborts with exit code 3."""


class SimRng:
    """Seeded xorshift64* stream (shift triplet 12/25/27, multiplier
    0x2545F4914F6CDD1D)."""

    def __init__(self, seed: int):
        self._state = (seed & _U64) or ZERO_SEED_SUBSTITUTE

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _U64
        x ^= x >> 27
        self._state = x
        return (x * _RNG_MULT) & _U64

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def next_int_symmetric(self, half_width: int) -> int:
        """Uniform integer in [-half_width, +half_width]."""
        return (self.next_u64() % (2 * half_width + 1)) - half_width


# Second element of the heap key: at equal times calls sort before deliveries.
_CALL, _DELIVER = 0, 1


@dataclass(slots=True)
class SimEvent:
    deliver_at: int
    index: int
    dest: int = 0
    link_id: int = -1
    sender: int = 0
    payload: bytes = b""
    fn: Callable | None = None     # set for a call, None for a delivery
    tag: str = ""                  # "\t<type>\t<seq>\n" trace suffix; "" untraced


@dataclass
class SimCounters:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0


class NetworkSim:
    """Single-threaded event loop; handlers run synchronously from step()."""

    def __init__(self, seed: int, trace=None):
        self.rng = SimRng(seed)
        self.links: dict[int, LinkSpec] = {}
        self._delay_changes: dict[int, list[tuple[int, int]]] = {}
        self._handlers: dict[int, Callable] = {}
        self._heap: list[tuple[int, int, int, SimEvent]] = []
        self._index = 0
        self._now = 0
        self.counters = SimCounters()
        self._trace = trace  # writable file-like or None

    @property
    def now(self) -> int:
        return self._now

    def add_link(self, spec: LinkSpec) -> None:
        if spec.link_id in self.links:
            raise ValueError(f"duplicate link id {spec.link_id}")
        self.links[spec.link_id] = spec
        self._delay_changes[spec.link_id] = []

    def register_handler(self, client_id: int,
                         handler: Callable[[bytes, int, int], None]) -> None:
        """handler(payload, now, link_id) is invoked on delivery."""
        self._handlers[client_id] = handler

    def set_link_delay(self, link_id: int, new_base_delay: int, at: int) -> None:
        """Sends issued at or after `at` use the new delay; in-flight events
        are unaffected."""
        if link_id not in self.links:
            raise UnknownLink(f"link {link_id}")
        changes = self._delay_changes[link_id]
        changes.append((at, new_base_delay))
        changes.sort()

    def effective_delay(self, link_id: int, at: int) -> int:
        """The last change at or before `at` in sorted order (so among
        changes at one time the last wins), else the link's base delay."""
        changes = self._delay_changes[link_id]
        i = bisect_right(changes, (at, math.inf))
        return changes[i - 1][1] if i else self.links[link_id].base_delay_ms

    def _push(self, rank: int, event: SimEvent) -> None:
        heapq.heappush(self._heap, (event.deliver_at, rank, event.index, event))

    def schedule_call(self, at: int, fn: Callable[[int], None]) -> None:
        """Run fn(now) at virtual time `at` (control events, ticks...),
        before any delivery due at `at`."""
        self._push(_CALL, SimEvent(at, self._next_index(), fn=fn))

    def _next_index(self) -> int:
        self._index += 1
        return self._index

    def send(self, link_id: int, sender: int, payload: bytes) -> bool:
        """Schedule a payload on a link at the current virtual time.

        Returns True if scheduled, False if the loss draw dropped it.
        """
        link = self.links.get(link_id)
        if link is None:
            raise UnknownLink(f"link {link_id}")
        if not link.available:
            raise LinkUnavailable(f"link {link_id} is down")
        now = self._now
        dest = link.other_endpoint(sender)
        self.counters.sent += 1
        tag = ""
        if self._trace is not None:
            mtype, _, seq = peek(payload)
            tag = f"\t{mtype}\t{seq}\n"
            self._trace_line("SEND", link_id, sender, dest, tag)
        if self.rng.next_float() < link.loss_prob:
            self.counters.dropped += 1
            self._trace_line("DROP", link_id, sender, dest, tag)
            return False
        delay = self.effective_delay(link_id, now)
        if link.jitter_ms > 0:
            delay += self.rng.next_int_symmetric(link.jitter_ms)
        deliver_at = max(now + 1, now + delay)
        self._push(_DELIVER, SimEvent(deliver_at, self._next_index(), dest,
                                      link_id, sender, payload, None, tag))
        return True

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def pending_deliveries(self) -> int:
        return sum(1 for _, rank, _, _ in self._heap if rank == _DELIVER)

    def peek_time(self) -> int:
        if not self._heap:
            raise EmptyQueue("no scheduled events")
        return self._heap[0][0]

    def step(self) -> SimEvent:
        """Deliver the next event, advancing the clock to its time."""
        if not self._heap:
            raise EmptyQueue("no scheduled events")
        _, rank, _, event = heapq.heappop(self._heap)
        if event.deliver_at < self._now:
            raise InvariantViolation("virtual clock would move backwards")
        self._now = event.deliver_at
        if rank == _CALL:
            event.fn(self._now)
            return event
        self.counters.delivered += 1
        self._trace_line("DELIVER", event.link_id, event.sender, event.dest,
                         event.tag)
        handler = self._handlers.get(event.dest)
        if handler is not None:
            handler(event.payload, self._now, event.link_id)
        return event

    def run_until(self, t_end: int) -> None:
        while self._heap and self._heap[0][0] <= t_end:
            self.step()

    def _trace_line(self, kind: str, link_id: int, sender: int, dest: int,
                    tag: str) -> None:
        """One trace line; `tag` is the frame's header suffix, peeked once
        at send."""
        if self._trace is None:
            return
        self._trace.write(f"{self._now}\t{kind}\t{link_id}\t{sender}\t{dest}{tag}")
