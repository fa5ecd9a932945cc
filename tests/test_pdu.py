"""Wire codec: golden vectors, round trips, error taxonomy, and an oracle
against the two-struct codec."""

import math
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamesync import pdu
from gamesync.pdu import (BadMagic, BadVersion, EventKind, EventMessage,
                          NonFiniteField, PingMessage, PongMessage,
                          StateUpdate, TruncatedFrame, UnknownType, decode,
                          encode)

# Golden frame for StateUpdate{sender=7, entity=3, seq=42, ts=1500,
# pos=(12.5,-4.0), vel=(10.0,0.0), critical=true}, assembled by hand from
# the layout table: header 4d53 01 01 00000007 00000003 0000002a
# 00000000000005dc, then the four binary64 payloads and the flags byte.
GOLDEN_HEX = (
    "4d53010100000007000000030000002a00000000000005dc"
    "4029000000000000"   # 12.5
    "c010000000000000"   # -4.0
    "4024000000000000"   # 10.0
    "0000000000000000"   # 0.0
    "01"
)


def test_golden_state_update():
    msg = StateUpdate(7, 3, 42, 1500, (12.5, -4.0), (10.0, 0.0), True)
    assert encode(msg).hex() == GOLDEN_HEX


def test_zero_state_update_layout():
    data = encode(StateUpdate(0, 0, 0, 0, (0.0, 0.0), (0.0, 0.0), False))
    assert data[:4] == b"\x4d\x53\x01\x01"
    assert data[4:] == b"\x00" * (len(data) - 4)
    assert len(data) == pdu.FRAME_LENGTHS[pdu.TYPE_STATE] == 57


def test_frame_lengths_constant_per_type():
    assert pdu.FRAME_LENGTHS == {0x01: 57, 0x02: 33, 0x03: 28, 0x04: 36}
    assert len(encode(EventMessage(1, 2, 3, 4, EventKind.FIRE))) == 33
    assert len(encode(PingMessage(1, 99, 5))) == 28
    assert len(encode(PongMessage(1, 99, 5, 4))) == 36


u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
pair = st.tuples(finite, finite)

state_updates = st.builds(StateUpdate, sender_id=u32, entity_id=u32, seq=u32,
                          timestamp=u64, pos=pair, vel=pair,
                          critical=st.booleans())
events = st.builds(EventMessage, sender_id=u32, entity_id=u32, seq=u32,
                   timestamp=u64, event_kind=st.sampled_from(EventKind),
                   payload=st.binary(min_size=8, max_size=8))
pings = st.builds(PingMessage, sender_id=u32, nonce=u64, timestamp=u64)
pongs = st.builds(PongMessage, sender_id=u32, nonce=u64, timestamp=u64,
                  echo_timestamp=u64)
messages = st.one_of(state_updates, events, pings, pongs)


@given(messages)
def test_round_trip_property(msg):
    data = encode(msg)
    assert decode(data) == msg
    assert encode(msg) == data   # byte-deterministic


def _random_message(rng: random.Random):
    kind = rng.randrange(4)
    header = dict(sender_id=rng.getrandbits(32), entity_id=rng.getrandbits(32),
                  seq=rng.getrandbits(32), timestamp=rng.getrandbits(48))
    if kind == 0:
        return StateUpdate(pos=(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)),
                           vel=(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)),
                           critical=rng.random() < 0.5, **header)
    if kind == 1:
        return EventMessage(event_kind=rng.choice(list(EventKind)),
                            payload=rng.getrandbits(64).to_bytes(8, "big"),
                            **header)
    if kind == 2:
        return PingMessage(header["sender_id"], rng.getrandbits(64),
                           header["timestamp"])
    return PongMessage(header["sender_id"], rng.getrandbits(64),
                       header["timestamp"], rng.getrandbits(48))


def test_round_trip_1000_seeded_messages():
    rng = random.Random(20240601)
    for _ in range(1000):
        msg = _random_message(rng)
        assert decode(encode(msg)) == msg


def test_empty_input_is_truncated():
    with pytest.raises(TruncatedFrame):
        decode(b"")


@pytest.mark.parametrize("msg", [
    StateUpdate(1, 2, 3, 4, (1.0, 2.0), (3.0, 4.0), False),
    EventMessage(1, 2, 3, 4, EventKind.SPAWN),
    PingMessage(1, 2, 3),
    PongMessage(1, 2, 3, 4),
])
def test_every_short_prefix_is_truncated(msg):
    data = encode(msg)
    for n in range(0, len(data)):
        with pytest.raises(TruncatedFrame):
            decode(data[:n])


def test_bad_magic():
    data = bytearray(encode(PingMessage(1, 2, 3)))
    data[0] = 0x00
    with pytest.raises(BadMagic):
        decode(bytes(data))


def test_bad_version():
    data = bytearray(encode(PingMessage(1, 2, 3)))
    data[2] = 0x02
    with pytest.raises(BadVersion):
        decode(bytes(data))


def test_unknown_type():
    data = bytearray(encode(PingMessage(1, 2, 3)))
    data[3] = 0x7F
    with pytest.raises(UnknownType):
        decode(bytes(data))


@pytest.mark.parametrize("msg", [
    StateUpdate(1, 2, 3, 4, (0.0, 0.0), (0.0, 0.0)),
    EventMessage(1, 2, 3, 4, EventKind.FIRE),
    PingMessage(1, 2, 3),
    PongMessage(1, 2, 3, 4),
], ids=lambda msg: type(msg).__name__)
def test_messages_are_immutable_and_hashable(msg):
    with pytest.raises(AttributeError):
        msg.timestamp = 5
    assert len({msg, type(msg)(*msg)}) == 1


def test_unknown_event_kind():
    data = bytearray(encode(EventMessage(1, 2, 3, 4, EventKind.FIRE)))
    data[pdu.HEADER_LEN] = 0xEE
    with pytest.raises(UnknownType):
        decode(bytes(data))


def test_encode_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteField):
            encode(StateUpdate(1, 2, 3, 4, (bad, 0.0), (0.0, 0.0), False))
        with pytest.raises(NonFiniteField):
            encode(StateUpdate(1, 2, 3, 4, (0.0, 0.0), (0.0, bad), False))


def test_decode_rejects_non_finite_on_wire():
    data = bytearray(encode(StateUpdate(1, 2, 3, 4, (1.0, 2.0), (3.0, 4.0), False)))
    data[pdu.HEADER_LEN:pdu.HEADER_LEN + 8] = bytes.fromhex("7ff8000000000000")
    with pytest.raises(NonFiniteField):
        decode(bytes(data))


def test_event_payload_must_be_exactly_8_bytes():
    with pytest.raises(ValueError, match="8 bytes"):
        encode(EventMessage(1, 2, 3, 4, EventKind.FIRE, b"abc"))
    with pytest.raises(ValueError, match="8 bytes"):
        encode(EventMessage(1, 2, 3, 4, EventKind.FIRE, b"123456789"))


def test_trailing_bytes_are_ignored():
    msg = PingMessage(1, 2, 3)
    assert decode(encode(msg) + b"\xde\xad") == msg


def test_ping_pong_nonce_spans_64_bits():
    nonce = (0xABCD1234 << 32) | 0x9999
    ping = PingMessage(5, nonce, 77)
    assert decode(encode(ping)) == ping
    pong = PongMessage(6, nonce, 88, 77)
    assert decode(encode(pong)) == pong


def test_peek():
    msg = StateUpdate(9, 1, 1234, 5, (0.0, 0.0), (0.0, 0.0), False)
    assert pdu.peek(encode(msg)) == ("STATE", 9, 1234)
    assert pdu.peek(b"junk") == ("?", 0, 0)


# -- oracle: the codec as it was written with a header struct and a payload
# struct per type, decoding the body from a slice. The one-struct codec must
# agree with it on every input: the same record, or the same error.

_REF_HEADER = struct.Struct("!2sBBIIIQ")
_REF_STATE_PAYLOAD = struct.Struct("!ddddB")
_REF_EVENT_PAYLOAD = struct.Struct("!B8s")
_REF_PING_PAYLOAD = struct.Struct("!I")
_REF_PONG_PAYLOAD = struct.Struct("!IQ")
_REF_HEADER_LEN = _REF_HEADER.size
_REF_FRAME_LENGTHS = {
    pdu.TYPE_STATE: _REF_HEADER_LEN + _REF_STATE_PAYLOAD.size,
    pdu.TYPE_EVENT: _REF_HEADER_LEN + _REF_EVENT_PAYLOAD.size,
    pdu.TYPE_PING: _REF_HEADER_LEN + _REF_PING_PAYLOAD.size,
    pdu.TYPE_PONG: _REF_HEADER_LEN + _REF_PONG_PAYLOAD.size,
}
_REF_EVENT_KINDS = {kind.value: kind for kind in EventKind}
_U32 = (1 << 32) - 1


def _ref_check_finite(msg, values):
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteField(f"non-finite value {v!r} in {type(msg).__name__}")


def reference_encode(msg):
    if isinstance(msg, StateUpdate):
        _ref_check_finite(msg, (*msg.pos, *msg.vel))
        header = _REF_HEADER.pack(pdu.MAGIC, pdu.VERSION, pdu.TYPE_STATE,
                                  msg.sender_id, msg.entity_id, msg.seq,
                                  msg.timestamp)
        return header + _REF_STATE_PAYLOAD.pack(msg.pos[0], msg.pos[1],
                                                msg.vel[0], msg.vel[1],
                                                1 if msg.critical else 0)
    if isinstance(msg, EventMessage):
        if len(msg.payload) != 8:
            raise ValueError(f"event payload must be 8 bytes, got {len(msg.payload)}")
        header = _REF_HEADER.pack(pdu.MAGIC, pdu.VERSION, pdu.TYPE_EVENT,
                                  msg.sender_id, msg.entity_id, msg.seq,
                                  msg.timestamp)
        return header + _REF_EVENT_PAYLOAD.pack(int(msg.event_kind), msg.payload)
    if isinstance(msg, PingMessage):
        header = _REF_HEADER.pack(pdu.MAGIC, pdu.VERSION, pdu.TYPE_PING,
                                  msg.sender_id, 0, msg.nonce & _U32,
                                  msg.timestamp)
        return header + _REF_PING_PAYLOAD.pack(msg.nonce >> 32)
    if isinstance(msg, PongMessage):
        header = _REF_HEADER.pack(pdu.MAGIC, pdu.VERSION, pdu.TYPE_PONG,
                                  msg.sender_id, 0, msg.nonce & _U32,
                                  msg.timestamp)
        return header + _REF_PONG_PAYLOAD.pack(msg.nonce >> 32,
                                               msg.echo_timestamp)
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def reference_decode(data):
    if len(data) < 2:
        raise TruncatedFrame(f"{len(data)} bytes, need 2 for magic")
    if data[:2] != pdu.MAGIC:
        raise BadMagic(f"magic {data[:2].hex()}")
    if len(data) < 3:
        raise TruncatedFrame("missing version byte")
    if data[2] != pdu.VERSION:
        raise BadVersion(f"version {data[2]:#04x}")
    if len(data) < 4:
        raise TruncatedFrame("missing type byte")
    mtype = data[3]
    frame_len = _REF_FRAME_LENGTHS.get(mtype)
    if frame_len is None:
        raise UnknownType(f"type {mtype:#04x}")
    if len(data) < frame_len:
        raise TruncatedFrame(f"{len(data)} bytes, type {mtype:#04x} needs {frame_len}")

    _, _, _, sender_id, entity_id, seq, timestamp = _REF_HEADER.unpack_from(data, 0)
    body = data[_REF_HEADER_LEN:frame_len]

    if mtype == pdu.TYPE_STATE:
        px, py, vx, vy, flags = _REF_STATE_PAYLOAD.unpack(body)
        for v in (px, py, vx, vy):
            if not math.isfinite(v):
                raise NonFiniteField(f"non-finite value {v!r} on the wire")
        return StateUpdate(sender_id, entity_id, seq, timestamp,
                           (px, py), (vx, vy), bool(flags & 1))
    if mtype == pdu.TYPE_EVENT:
        kind, payload = _REF_EVENT_PAYLOAD.unpack(body)
        event_kind = _REF_EVENT_KINDS.get(kind)
        if event_kind is None:
            raise UnknownType(f"event kind {kind:#04x}")
        return EventMessage(sender_id, entity_id, seq, timestamp, event_kind, payload)
    if mtype == pdu.TYPE_PING:
        (nonce_high,) = _REF_PING_PAYLOAD.unpack(body)
        return PingMessage(sender_id, (nonce_high << 32) | seq, timestamp)
    nonce_high, echo_timestamp = _REF_PONG_PAYLOAD.unpack(body)
    return PongMessage(sender_id, (nonce_high << 32) | seq, timestamp, echo_timestamp)


def outcome(fn, arg):
    """What fn(arg) gives: ("ok", type, value, repr) or ("raise", class,
    message). repr tells -0.0 from 0.0 and True from 1, which == does not."""
    try:
        value = fn(arg)
    except Exception as exc:   # the oracle compares whatever is raised
        return "raise", type(exc), str(exc)
    return "ok", type(value), value, repr(value)


def edges(bits):
    top = (1 << bits) - 1
    return st.one_of(st.sampled_from([0, 1, top - 1, top]),
                     st.integers(0, top))


def wire_u(bits):
    fmt = {8: "!B", 32: "!I", 64: "!Q"}[bits]
    return edges(bits).map(struct.Struct(fmt).pack)


# binary64 bit patterns, as they may arrive: signed zeros, subnormals, the
# extremes, NaNs (quiet, signalling, negative) and infinities
SPECIAL_DOUBLES = [
    "0000000000000000", "8000000000000000", "0000000000000001",
    "800fffffffffffff", "0010000000000000", "7fefffffffffffff",
    "ffefffffffffffff", "7ff0000000000000", "fff0000000000000",
    "7ff8000000000000", "fff8000000000000", "7ff0000000000001",
    "7fffffffffffffff",
]
wire_double = st.one_of(
    st.sampled_from([bytes.fromhex(h) for h in SPECIAL_DOUBLES]),
    st.floats(width=64).map(struct.Struct("!d").pack),
    st.binary(min_size=8, max_size=8))


def wire_frame(mtype, *body):
    head = st.tuples(st.just(pdu.MAGIC + bytes((pdu.VERSION, mtype))),
                     wire_u(32), wire_u(32), wire_u(32), wire_u(64))
    return st.tuples(head, *body).map(
        lambda parts: b"".join(parts[0]) + b"".join(parts[1:]))


wire_frames = st.one_of(
    wire_frame(pdu.TYPE_STATE, wire_double, wire_double, wire_double,
               wire_double, wire_u(8)),
    wire_frame(pdu.TYPE_EVENT,
               st.one_of(st.sampled_from([b"\x01", b"\x02", b"\x03"]),
                         wire_u(8)),
               st.binary(min_size=8, max_size=8)),
    wire_frame(pdu.TYPE_PING, wire_u(32)),
    wire_frame(pdu.TYPE_PONG, wire_u(32), wire_u(64)),
)

# positions a flip may hit: magic, version, type and an event's kind
FLIP_AT = [0, 1, 2, 3, pdu.HEADER_LEN]


@st.composite
def decode_inputs(draw):
    how = draw(st.sampled_from(["valid", "flipped", "trailing", "random"]))
    if how == "random":
        return draw(st.binary(max_size=80))
    data = bytearray(draw(wire_frames))
    if how == "flipped":
        at = draw(st.sampled_from(FLIP_AT))
        if at < len(data):
            data[at] = draw(st.integers(0, 255))
    elif how == "trailing":
        data += draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


def assert_decodes_like_reference(data):
    for form in (bytes(data), bytearray(data)):
        assert outcome(decode, form) == outcome(reference_decode, form), form


@given(decode_inputs())
def test_decode_matches_the_reference(data):
    assert_decodes_like_reference(data)


@given(wire_frames)
def test_decode_matches_the_reference_on_every_truncation(data):
    for n in range(len(data) + 1):
        assert_decodes_like_reference(data[:n])


any_int = st.one_of(edges(32), edges(64), st.integers(-2, 2**66))
# a nonce is 64 bits, split over two uint32 fields
any_nonce = st.one_of(
    st.sampled_from([-1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96]),
    st.integers(-2, 2**98))
any_float = st.floats(width=64)
any_pair = st.tuples(any_float, any_float)
encode_inputs = st.one_of(
    st.builds(StateUpdate, sender_id=any_int, entity_id=any_int, seq=any_int,
              timestamp=any_int, pos=any_pair, vel=any_pair,
              critical=st.booleans()),
    st.builds(EventMessage, sender_id=any_int, entity_id=any_int, seq=any_int,
              timestamp=any_int, event_kind=st.sampled_from(EventKind),
              payload=st.one_of(st.binary(min_size=8, max_size=8),
                                st.binary(max_size=12))),
    st.builds(PingMessage, sender_id=any_int, nonce=any_nonce,
              timestamp=any_int),
    st.builds(PongMessage, sender_id=any_int, nonce=any_nonce,
              timestamp=any_int, echo_timestamp=any_int),
)


@given(encode_inputs)
def test_encode_matches_the_reference(msg):
    assert outcome(encode, msg) == outcome(reference_encode, msg)
