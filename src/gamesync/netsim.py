"""Deterministic discrete-event network simulator.

Links have a base delay, symmetric uniform jitter, and a loss probability.
A link's delay lives on the simulator's copy of the link: set_link_delay
changes it for every send from then on, and frames in flight keep theirs.
All randomness flows through one seeded xorshift64* generator, so identical
seeds give identical event traces on every platform. The simulator owns the
global virtual clock; this is what makes the synchronized-clock assumption
of the consistency layer hold exactly.

Per send the generator is consumed in a fixed order: one 53-bit float draw
for loss (next_float's value, drawn even when the loss probability is 0),
then (only if the link has jitter > 0) one integer draw
(next_u64 % (2*jitter + 1)) - jitter for the delay offset. Delivery is
clamped to at least now + 1 so causality is never instantaneous. FIFO is
deliberately NOT enforced per link: jitter can reorder deliveries, which is
what exercises the rollback path downstream.

Events due at the same virtual time run calls first, then deliveries, each
in the order they were scheduled. Each event is its own heap entry, a tuple
that sorts by (time, call-or-delivery, index), so a call scheduled while the
run goes (a tick rescheduling itself) still runs before a delivery due at
the same time that was sent earlier.

A send resolves a (link, sender) pair once, the first time it is used:
its link, the other endpoint and the `\t<link>\t<sender>\t<dest>` part of
a trace line. The `\t<type>\t<seq>\n` part is rendered per payload object
(a fan-out hands one payload to every peer, and its header is peeked once,
with one unpack). The event carries the joined suffix to its DELIVER line.
An untraced send never peeks.
"""

from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Callable, NamedTuple

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


# Second field of an event: at equal times calls sort before deliveries.
_CALL, _DELIVER = 0, 1


class SimEvent(NamedTuple):
    """One scheduled event, and its own heap entry: it sorts by
    (deliver_at, rank, index), and the index is unique. Built through
    `tuple.__new__`, at about half the cost of the generated `__new__`.

    `trace` is the trace-line suffix
    "\t<link>\t<sender>\t<dest>\t<type>\t<seq>\n", or "" untraced."""
    deliver_at: int
    rank: int                      # _CALL or _DELIVER
    index: int
    fn: Callable | None            # set for a call, None for a delivery
    dest: int
    link_id: int
    payload: bytes
    trace: str


_new_event = tuple.__new__


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
        self._handlers: dict[int, Callable] = {}
        self._heap: list[SimEvent] = []
        self._index = 0
        self._now = 0
        self.counters = SimCounters()
        self._trace = trace  # writable file-like or None
        # Per (link, sender) pair sent on: the link, its other endpoint and
        # the trace part "\t<link>\t<sender>\t<dest>". A link is never
        # removed or replaced, so the entry holds for the whole run.
        self._resolved: dict[tuple[int, int], tuple] = {}
        # Traced only: the "\t<type>\t<seq>\n" part of the last payload
        # sent. Holding the payload keeps its id from being reused, so `is`
        # is a safe test.
        self._tag_payload: bytes | None = None
        self._tag = ""

    @property
    def now(self) -> int:
        return self._now

    def add_link(self, spec: LinkSpec) -> None:
        """Add a copy of `spec`: a link going down or up, or changing its
        delay, during the run changes the simulator's copy, never the
        caller's."""
        if spec.link_id in self.links:
            raise ValueError(f"duplicate link id {spec.link_id}")
        self.links[spec.link_id] = replace(spec)

    def register_handler(self, client_id: int,
                         handler: Callable[[bytes, int, int], None]) -> None:
        """handler(payload, now, link_id) is invoked on delivery."""
        self._handlers[client_id] = handler

    def set_link_delay(self, link_id: int, new_base_delay: int) -> None:
        """Sends issued from now on use the new delay; frames already in
        flight keep theirs. A change due at a virtual time is made by a
        call scheduled at that time (see schedule_call)."""
        link = self.links.get(link_id)
        if link is None:
            raise UnknownLink(f"link {link_id}")
        link.base_delay_ms = new_base_delay

    def schedule_call(self, at: int, fn: Callable[[int], None]) -> None:
        """Run fn(now) at virtual time `at` (control events, ticks...),
        before any delivery due at `at`."""
        self._index += 1
        heappush(self._heap, _new_event(
            SimEvent, (at, _CALL, self._index, fn, 0, -1, b"", "")))

    def send(self, link_id: int, sender: int, payload: bytes) -> bool:
        """Schedule a payload on a link at the current virtual time.

        Returns True if scheduled, False if the loss draw dropped it.
        """
        end = self._resolved.get((link_id, sender))
        if end is None:
            end = self._resolve(link_id, sender)
        link, dest, endpoints = end
        if not link.available:
            raise LinkUnavailable(f"link {link_id} is down")
        now = self._now
        self.counters.sent += 1
        trace = self._trace
        suffix = ""
        if trace is not None:
            if payload is not self._tag_payload:
                mtype, _, seq = peek(payload)
                self._tag_payload = payload
                self._tag = f"\t{mtype}\t{seq}\n"
            suffix = endpoints + self._tag
            trace.write(f"{now}\tSEND{suffix}")
        # the loss draw: next_float's value, from one next_u64 call
        if (self.rng.next_u64() >> 11) * _INV_2_53 < link.loss_prob:
            self.counters.dropped += 1
            if trace is not None:
                trace.write(f"{now}\tDROP{suffix}")
            return False
        delay = link.base_delay_ms
        if link.jitter_ms > 0:
            delay += self.rng.next_int_symmetric(link.jitter_ms)
        self._index += 1
        heappush(self._heap, _new_event(
            SimEvent, (now + delay if delay > 0 else now + 1, _DELIVER,
                       self._index, None, dest, link_id, payload, suffix)))
        return True

    def _resolve(self, link_id: int, sender: int) -> tuple:
        """Resolve and keep a (link, sender) pair's link, destination and
        trace part. Raises UnknownLink for an unknown link, LinkUnavailable
        for a down one, and ValueError for a sender not on the link, in
        that order; nothing is kept then."""
        link = self.links.get(link_id)
        if link is None:
            raise UnknownLink(f"link {link_id}")
        if not link.available:
            raise LinkUnavailable(f"link {link_id} is down")
        dest = link.other_endpoint(sender)
        end = self._resolved[link_id, sender] = (
            link, dest, f"\t{link_id}\t{sender}\t{dest}")
        return end

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def pending_deliveries(self) -> int:
        return sum(1 for event in self._heap if event[1] == _DELIVER)

    def step(self) -> SimEvent:
        """Deliver the next event, advancing the clock to its time."""
        if not self._heap:
            raise EmptyQueue("no scheduled events")
        event = heappop(self._heap)
        now, rank, _, fn, dest, link_id, payload, suffix = event
        if now < self._now:
            raise InvariantViolation("virtual clock would move backwards")
        self._now = now
        if rank == _CALL:
            fn(now)
            return event
        self.counters.delivered += 1
        if suffix:
            self._trace.write(f"{now}\tDELIVER{suffix}")
        handler = self._handlers.get(dest)
        if handler is not None:
            handler(payload, now, link_id)
        return event

    def run_until(self, t_end: int) -> None:
        while self._heap and self._heap[0][0] <= t_end:
            self.step()
