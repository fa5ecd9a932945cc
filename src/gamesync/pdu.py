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

Each frame type has one precompiled struct covering its header and payload
together, and both encode and decode use it; the struct reads the magic,
version and type bytes as one uint32 prefix, so decode reads a frame with
one unpack_from and no slice. A frame that fails more than one check is
rejected for the first, in this order: magic, version, type, length,
finite. A frame too short to hold the magic, version or type byte raises
TruncatedFrame at that step; otherwise a wrong magic raises BadMagic, a
wrong version BadVersion, an unknown type UnknownType, and a frame shorter
than its type's length TruncatedFrame. Then a NaN or infinite position or
velocity raises NonFiniteField, and an event's unknown kind UnknownType.

The four message records are immutable, hashable NamedTuples, since one is
built for every frame received; decode builds them with tuple.__new__, so
a decoded record is exactly one of the four types. Equality is field-wise,
as for tuples: a record equals any tuple holding the same values, so
dispatch on a message's type (isinstance, or `type(msg) is` for a decoded
one), never by comparison.
"""

import struct
from enum import IntEnum
from math import isfinite
from typing import NamedTuple

MAGIC = b"\x4d\x53"
VERSION = 0x01

TYPE_STATE = 0x01
TYPE_EVENT = 0x02
TYPE_PING = 0x03
TYPE_PONG = 0x04

# One struct per frame type, header and payload together. The first field
# is the frame's prefix (magic, version, type) as one uint32.
_HEAD = "!IIIIQ"
_STATE = struct.Struct(_HEAD + "ddddB")
_EVENT = struct.Struct(_HEAD + "B8s")
_PING = struct.Struct(_HEAD + "I")
_PONG = struct.Struct(_HEAD + "IQ")
_FRAMES = {TYPE_STATE: _STATE, TYPE_EVENT: _EVENT, TYPE_PING: _PING,
           TYPE_PONG: _PONG}
_PREFIX = int.from_bytes(MAGIC + bytes((VERSION, 0)), "big")

HEADER_LEN = struct.calcsize(_HEAD)

FRAME_LENGTHS = {mtype: frame.size for mtype, frame in _FRAMES.items()}

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


_new = tuple.__new__


def _check_finite(msg, values):
    for v in values:
        if not isfinite(v):
            raise NonFiniteField(f"non-finite value {v!r} in {type(msg).__name__}")


def encode(msg: Message) -> bytes:
    """Serialize a message to its fixed-length frame.

    Deterministic: equal messages encode to equal bytes. Raises
    NonFiniteField for NaN/infinite position or velocity components.
    """
    if isinstance(msg, StateUpdate):
        _check_finite(msg, (*msg.pos, *msg.vel))
        return _STATE.pack(_PREFIX | TYPE_STATE, msg.sender_id, msg.entity_id,
                           msg.seq, msg.timestamp, msg.pos[0], msg.pos[1],
                           msg.vel[0], msg.vel[1], 1 if msg.critical else 0)
    if isinstance(msg, EventMessage):
        if len(msg.payload) != 8:
            # struct "8s" would silently pad or truncate
            raise ValueError(f"event payload must be 8 bytes, got {len(msg.payload)}")
        return _EVENT.pack(_PREFIX | TYPE_EVENT, msg.sender_id, msg.entity_id,
                           msg.seq, msg.timestamp, int(msg.event_kind),
                           msg.payload)
    if isinstance(msg, PingMessage):
        return _PING.pack(_PREFIX | TYPE_PING, msg.sender_id, 0,
                          msg.nonce & _U32, msg.timestamp, msg.nonce >> 32)
    if isinstance(msg, PongMessage):
        return _PONG.pack(_PREFIX | TYPE_PONG, msg.sender_id, 0,
                          msg.nonce & _U32, msg.timestamp, msg.nonce >> 32,
                          msg.echo_timestamp)
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def decode(data: bytes) -> Message:
    """Parse one frame. Inverse of encode on its image.

    Reads exactly the frame length for the declared type; trailing bytes are
    ignored. Raises BadMagic, BadVersion, UnknownType, TruncatedFrame or
    NonFiniteField, in the precedence the module docstring gives.
    """
    try:
        mtype = data[3]
        fields = _FRAMES[mtype].unpack_from(data)
    except (IndexError, KeyError, struct.error):
        raise _bad_frame(data) from None
    if fields[0] != _PREFIX | mtype:
        raise _bad_frame(data)

    if mtype == TYPE_STATE:
        _, sender_id, entity_id, seq, timestamp, px, py, vx, vy, flags = fields
        if not (isfinite(px) and isfinite(py) and isfinite(vx)
                and isfinite(vy)):
            _reject_non_finite((px, py, vx, vy))
        return _new(StateUpdate, (sender_id, entity_id, seq, timestamp,
                                  (px, py), (vx, vy), (flags & 1) == 1))
    if mtype == TYPE_EVENT:
        _, sender_id, entity_id, seq, timestamp, kind, payload = fields
        event_kind = _EVENT_KINDS.get(kind)
        if event_kind is None:
            raise UnknownType(f"event kind {kind:#04x}")
        return _new(EventMessage, (sender_id, entity_id, seq, timestamp,
                                   event_kind, payload))
    if mtype == TYPE_PING:
        _, sender_id, _, seq, timestamp, nonce_high = fields
        return _new(PingMessage, (sender_id, (nonce_high << 32) | seq,
                                  timestamp))
    _, sender_id, _, seq, timestamp, nonce_high, echo_timestamp = fields
    return _new(PongMessage, (sender_id, (nonce_high << 32) | seq, timestamp,
                              echo_timestamp))


def _bad_frame(data) -> DecodeError:
    """The error for a frame whose prefix or length is bad: the first of
    magic, version, type and length that fails."""
    if len(data) < 2:
        return TruncatedFrame(f"{len(data)} bytes, need 2 for magic")
    if data[:2] != MAGIC:
        return BadMagic(f"magic {data[:2].hex()}")
    if len(data) < 3:
        return TruncatedFrame("missing version byte")
    if data[2] != VERSION:
        return BadVersion(f"version {data[2]:#04x}")
    if len(data) < 4:
        return TruncatedFrame("missing type byte")
    mtype = data[3]
    frame_len = FRAME_LENGTHS.get(mtype)
    if frame_len is None:
        return UnknownType(f"type {mtype:#04x}")
    return TruncatedFrame(f"{len(data)} bytes, type {mtype:#04x} needs {frame_len}")


def _reject_non_finite(values):
    for v in values:
        if not isfinite(v):
            raise NonFiniteField(f"non-finite value {v!r} on the wire")


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
