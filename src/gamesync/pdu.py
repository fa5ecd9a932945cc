"""Message vocabulary and binary wire encoding.

Frame layout, all fields big-endian:

    offset  size  field
    0       2     magic 0x4D 0x53
    2       1     version (0x01)
    3       1     type: 0x01 state, 0x02 event, 0x03 ping, 0x04 pong
    4       4     sender_id (uint32)
    8       4     entity_id (uint32, zero for ping/pong)
    12      4     seq (uint32; low 32 bits of the nonce for ping/pong)
    16      8     timestamp, virtual ms (uint64)

followed by the type-specific payload:

    state:  pos_x(8) pos_y(8) vel_x(8) vel_y(8) flags(1, bit0=critical)  -> 57 bytes
    event:  kind(1) payload(8)                                           -> 33 bytes
    ping:   nonce_high(4)                                                -> 28 bytes
    pong:   nonce_high(4) echo_timestamp(8)                              -> 36 bytes

Positions and velocities are IEEE-754 binary64 bit patterns. Frames are
fixed-length per type; framing/fragmentation is the transport's problem.

The four message records are immutable, hashable NamedTuples, since one is
built for every frame received. Equality is field-wise, as for tuples: a
record equals any tuple holding the same values, so dispatch on a message's
type with isinstance, never by comparison.
"""

import math
import struct
from enum import IntEnum
from typing import NamedTuple

MAGIC = b"\x4d\x53"
VERSION = 0x01

TYPE_STATE = 0x01
TYPE_EVENT = 0x02
TYPE_PING = 0x03
TYPE_PONG = 0x04

_HEADER = struct.Struct("!2sBBIIIQ")
_STATE_PAYLOAD = struct.Struct("!ddddB")
_EVENT_PAYLOAD = struct.Struct("!B8s")
_PING_PAYLOAD = struct.Struct("!I")
_PONG_PAYLOAD = struct.Struct("!IQ")

HEADER_LEN = _HEADER.size

FRAME_LENGTHS = {
    TYPE_STATE: HEADER_LEN + _STATE_PAYLOAD.size,
    TYPE_EVENT: HEADER_LEN + _EVENT_PAYLOAD.size,
    TYPE_PING: HEADER_LEN + _PING_PAYLOAD.size,
    TYPE_PONG: HEADER_LEN + _PONG_PAYLOAD.size,
}

_U32 = (1 << 32) - 1


class CodecError(Exception):
    """Base for encode/decode failures."""


class DecodeError(CodecError):
    pass


class BadMagic(DecodeError):
    pass


class BadVersion(DecodeError):
    pass


class UnknownType(DecodeError):
    pass


class TruncatedFrame(DecodeError):
    pass


class NonFiniteField(CodecError):
    """A floating field is NaN or infinite (rejected on both paths)."""


class EventKind(IntEnum):
    FIRE = 1
    SPAWN = 2
    DESPAWN = 3


_EVENT_KINDS = {kind.value: kind for kind in EventKind}


class StateUpdate(NamedTuple):
    sender_id: int
    entity_id: int
    seq: int
    timestamp: int
    pos: tuple[float, float]
    vel: tuple[float, float]
    critical: bool = False


class EventMessage(NamedTuple):
    sender_id: int
    entity_id: int
    seq: int
    timestamp: int
    event_kind: EventKind
    payload: bytes = b"\x00" * 8


class PingMessage(NamedTuple):
    sender_id: int
    nonce: int
    timestamp: int


class PongMessage(NamedTuple):
    sender_id: int
    nonce: int
    timestamp: int
    echo_timestamp: int


Message = StateUpdate | EventMessage | PingMessage | PongMessage


def _check_finite(msg, values):
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteField(f"non-finite value {v!r} in {type(msg).__name__}")


def encode(msg: Message) -> bytes:
    """Serialize a message to its fixed-length frame.

    Deterministic: equal messages encode to equal bytes. Raises
    NonFiniteField for NaN/infinite position or velocity components.
    """
    if isinstance(msg, StateUpdate):
        _check_finite(msg, (*msg.pos, *msg.vel))
        header = _HEADER.pack(MAGIC, VERSION, TYPE_STATE, msg.sender_id,
                              msg.entity_id, msg.seq, msg.timestamp)
        return header + _STATE_PAYLOAD.pack(msg.pos[0], msg.pos[1],
                                            msg.vel[0], msg.vel[1],
                                            1 if msg.critical else 0)
    if isinstance(msg, EventMessage):
        if len(msg.payload) != 8:
            # struct "8s" would silently pad or truncate
            raise ValueError(f"event payload must be 8 bytes, got {len(msg.payload)}")
        header = _HEADER.pack(MAGIC, VERSION, TYPE_EVENT, msg.sender_id,
                              msg.entity_id, msg.seq, msg.timestamp)
        return header + _EVENT_PAYLOAD.pack(int(msg.event_kind), msg.payload)
    if isinstance(msg, PingMessage):
        header = _HEADER.pack(MAGIC, VERSION, TYPE_PING, msg.sender_id,
                              0, msg.nonce & _U32, msg.timestamp)
        return header + _PING_PAYLOAD.pack(msg.nonce >> 32)
    if isinstance(msg, PongMessage):
        header = _HEADER.pack(MAGIC, VERSION, TYPE_PONG, msg.sender_id,
                              0, msg.nonce & _U32, msg.timestamp)
        return header + _PONG_PAYLOAD.pack(msg.nonce >> 32, msg.echo_timestamp)
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def decode(data: bytes) -> Message:
    """Parse one frame. Inverse of encode on its image.

    Reads exactly the frame length for the declared type; trailing bytes are
    ignored. Raises BadMagic, BadVersion, UnknownType, TruncatedFrame or
    NonFiniteField.
    """
    if len(data) < 2:
        raise TruncatedFrame(f"{len(data)} bytes, need 2 for magic")
    if data[:2] != MAGIC:
        raise BadMagic(f"magic {data[:2].hex()}")
    if len(data) < 3:
        raise TruncatedFrame("missing version byte")
    if data[2] != VERSION:
        raise BadVersion(f"version {data[2]:#04x}")
    if len(data) < 4:
        raise TruncatedFrame("missing type byte")
    mtype = data[3]
    frame_len = FRAME_LENGTHS.get(mtype)
    if frame_len is None:
        raise UnknownType(f"type {mtype:#04x}")
    if len(data) < frame_len:
        raise TruncatedFrame(f"{len(data)} bytes, type {mtype:#04x} needs {frame_len}")

    _, _, _, sender_id, entity_id, seq, timestamp = _HEADER.unpack_from(data, 0)
    body = data[HEADER_LEN:frame_len]

    if mtype == TYPE_STATE:
        px, py, vx, vy, flags = _STATE_PAYLOAD.unpack(body)
        for v in (px, py, vx, vy):
            if not math.isfinite(v):
                raise NonFiniteField(f"non-finite value {v!r} on the wire")
        return StateUpdate(sender_id, entity_id, seq, timestamp,
                           (px, py), (vx, vy), bool(flags & 1))
    if mtype == TYPE_EVENT:
        kind, payload = _EVENT_PAYLOAD.unpack(body)
        event_kind = _EVENT_KINDS.get(kind)
        if event_kind is None:
            raise UnknownType(f"event kind {kind:#04x}")
        return EventMessage(sender_id, entity_id, seq, timestamp, event_kind, payload)
    if mtype == TYPE_PING:
        (nonce_high,) = _PING_PAYLOAD.unpack(body)
        return PingMessage(sender_id, (nonce_high << 32) | seq, timestamp)
    nonce_high, echo_timestamp = _PONG_PAYLOAD.unpack(body)
    return PongMessage(sender_id, (nonce_high << 32) | seq, timestamp, echo_timestamp)


_TYPE_NAMES = {TYPE_STATE: "STATE", TYPE_EVENT: "EVENT",
               TYPE_PING: "PING", TYPE_PONG: "PONG"}


def peek(data: bytes) -> tuple[str, int, int]:
    """Cheap header peek for trace logging: (type name, sender, seq).

    Returns ("?", 0, 0) for anything too short or unrecognized.
    """
    if len(data) < HEADER_LEN or data[:2] != MAGIC:
        return "?", 0, 0
    name = _TYPE_NAMES.get(data[3], "?")
    sender = int.from_bytes(data[4:8], "big")
    seq = int.from_bytes(data[12:16], "big")
    return name, sender, seq
