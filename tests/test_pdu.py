"""Wire codec: golden vectors, round trips, and error taxonomy."""

import math
import random

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
