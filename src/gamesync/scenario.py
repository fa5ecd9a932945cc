"""Scenario definitions: a strict JSON schema describing clients, scripted
entity motion, links, regions, policies, and toggles.

Motion scripts are closed-form (position as a pure function of virtual
time), which is what gives the metrics an exact ground-truth oracle. Unknown
keys anywhere in the document are rejected, and so is a value of the wrong
type: every failure is a ValidationError naming the field.

Each setting's default and bounds live in its settings type, and the
parser reads both from there. "policies", each class policy and "toggles"
parse into the Medium's own PolicySet, ClassPolicy and Toggles
(gamesync.player), a link into an overlay.LinkSpec, a client into a
ClientSpec and an entity into an EntitySpec, and the run's tick_ms and
seed default to ScenarioConfig's. The keys a document may omit are the
type's fields with a default, and an omitted key takes that default; a
class policy's omitted keys take "policies.default"'s values instead, and
"policies.classes" may not name the default class, whose policy is
"policies.default". A field's JSON type comes from its annotation: an
integer, a number (read as a float), a boolean, and null only where the
default is None. A value out of the type's bounds raises the type's
ValueError, which begins with the field's name, and the parser turns it
into a ValidationError naming the field's path; a link event's change is
checked against its link's bounds the same way. Regions and waypoint paths
are built the same way: their types check their own geometry, and a bad
radius, a rect's min above its max, a waypoint path's speed or its points
raise a ValueError that begins with the key at fault, so every bad value
reaches the user in one format, "$.regions[0].radius must be > 0". The
parser itself checks only JSON types and the limits no type holds: those
of ids, times, intervals and counts (the wire's uint32 ids and uint64
clock among them), duplicate ids, and references to clients, links and
entities. One key is retired: "toggles.rollback_scope" is still accepted,
as "all" or "events" and nothing else, but it maps to no field and has no
effect, because rollback covers events only.

An entity's events parse into series cut at the run's last tick (the last
multiple of tick_ms at or before duration_ms): later events never fire.
Each "first"/"every"/"count" item is one (range of times, kind) pair, so it
costs one range whatever its count, and the single "at" events of each kind
are one (sorted tuple of times, kind) pair. No series is expanded at parse
time: walk_events merges an entity's series into (at, kind) events in time
order, ties by kind, one at a time as the run asks for them.

Top-level document:

    {
      "duration_ms": 30000,
      "tick_ms": 50,                      # optional, default 50
      "seed": 42,                         # optional, default 1
      "clients": [
        {"id": 0,
         "direct_address_known": true,    # optional
         "clock_offset_ms": 0,            # optional
         "entities": [
           {"id": 0, "class": "car",
            "motion": {"kind": "constant_velocity", "pos": [0,0], "vel": [10,0]}
                    | {"kind": "waypoints", "points": [[x,y],...],
                       "speed": 10.0, "loop": false},
            "events": [{"kind": "fire", "at": 1000}
                     | {"kind": "fire", "first": 1000, "every": 200, "count": 120}]
           }]}],
      "links": [
        {"id": 0, "endpoints": [0,1], "base_delay_ms": 250,
         "jitter_ms": 0, "loss_prob": 0.0,
         "kind": "relay", "available": true}],
      "link_events": [
        {"at": 5000, "link": 0, "base_delay_ms": 300}
      | {"at": 8000, "link": 0, "available": false}],
      "regions": [
        {"kind": "rect", "min": [90,-10], "max": [100,10]}
      | {"kind": "circle", "center": [0,0], "radius": 5}
      | {"kind": "anchored_circle", "anchor_entity": 3, "radius": 5}],
      "policies": {
        "default": {"threshold_m": 0.5, "convergence_ms": 200, "lag_ms": 0},
        "classes": {"car": {"lag_ms": 500}},
        "critical_threshold_scale": 0.25,
        "critical_lag_scale": 0.5,
        "heartbeat_ms": 1000,
        "ewma_alpha": 0.125,
        "exit_hysteresis_ms": 250,
        "route_hysteresis_ms": 500,
        "idle_ping_ms": 1000,
        "critical_proximity_radius_m": null
      },
      "toggles": {
        "overlay": false,
        "sender_side_lag": true,
        "receiver_side_lag": true,
        "critical_tightening": true
      }
    }
"""

import heapq
import json
import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache
from itertools import repeat

from gamesync.overlay import LinkKind, LinkSpec
from gamesync.pdu import EventKind
from gamesync.player import DEFAULT_CLASS, PolicySet, Toggles
from gamesync.regions import AnchoredCircle, Circle, Rect, Region


class ParseError(Exception):
    """The file is not valid JSON; message carries line/column."""


class ValidationError(Exception):
    """The document violates the schema; message names the field."""


# -- motion scripts --------------------------------------------------------

class ConstantVelocity:
    def __init__(self, pos, vel):
        self.pos0 = (float(pos[0]), float(pos[1]))
        self.vel = (float(vel[0]), float(vel[1]))

    def state(self, t: int) -> tuple:
        """(position, velocity) at t."""
        dt = t / 1000.0
        return ((self.pos0[0] + self.vel[0] * dt,
                 self.pos0[1] + self.vel[1] * dt), self.vel)


class WaypointPath:
    """Piecewise-linear path at constant speed; stops at the last point
    unless loop is set. A bad path raises a ValueError that begins with the
    key at fault, "points" or "speed"."""

    def __init__(self, points, speed: float, loop: bool = False):
        if len(points) < 2:
            raise ValueError("points needs at least 2 points")
        if not speed > 0:
            raise ValueError("speed must be > 0")
        self.points = [(float(x), float(y)) for x, y in points]
        self.speed = float(speed)
        self.loop = loop
        pts = list(self.points)
        if loop:
            pts.append(pts[0])
        self._segments = []
        self._cum = [0.0]
        for a, b in zip(pts, pts[1:]):
            length = math.hypot(b[0] - a[0], b[1] - a[1])
            if length == 0.0:
                raise ValueError("points contains a zero-length segment")
            scale = self.speed / length
            if not all(map(math.isfinite, (b[0] - a[0], b[1] - a[1],
                                           (b[0] - a[0]) * scale,
                                           (b[1] - a[1]) * scale))):
                raise ValueError("points: a segment or its velocity "
                                 "exceeds the float range")
            self._segments.append((a, b, length))
            self._cum.append(self._cum[-1] + length)
        self.total = self._cum[-1]
        if not math.isfinite(self.total):
            raise ValueError("points: the path length exceeds the float "
                             "range")

    def _locate(self, t: int):
        s = self.speed * (t / 1000.0)
        if self.loop:
            s = math.fmod(s, self.total)
        elif s >= self.total:
            return None
        # The first segment that ends past s, strictly, so a sample exactly
        # on a corner reports the outgoing leg; the last one takes the rest.
        i = bisect_right(self._cum, s, 1, len(self._segments)) - 1
        a, b, length = self._segments[i]
        return a, b, length, (s - self._cum[i]) / length

    def state(self, t: int) -> tuple:
        """(position, velocity) at t, from one segment lookup."""
        loc = self._locate(t)
        if loc is None:
            return self.points[-1], (0.0, 0.0)
        a, b, length, u = loc
        scale = self.speed / length
        return ((a[0] + (b[0] - a[0]) * u, a[1] + (b[1] - a[1]) * u),
                ((b[0] - a[0]) * scale, (b[1] - a[1]) * scale))


MotionScript = ConstantVelocity | WaypointPath


# -- config dataclasses ----------------------------------------------------

@dataclass
class EntitySpec:
    entity_id: int
    motion: MotionScript
    class_id: str = DEFAULT_CLASS
    # The entity's event series, [(ascending at_ms, EventKind), ...], cut
    # at the run's last tick: a range per series item, one sorted tuple per
    # kind for single events (see _parse_events and walk_events).
    events: list = field(default_factory=list)


@dataclass
class ClientSpec:
    client_id: int
    entities: list
    direct_address_known: bool = True
    clock_offset_ms: int = 0


@dataclass
class ScenarioConfig:
    duration_ms: int
    clients: list
    links: list
    link_events: list                       # [(at, link_id, field, value)]
    regions: list
    policies: PolicySet
    toggles: Toggles
    tick_ms: int = 50
    seed: int = 1


# -- parsing ---------------------------------------------------------------

def _require_keys(obj: dict, path: str, required: set, optional: set) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ValidationError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{path}: missing key(s) {sorted(missing)}")


U32_MAX = (1 << 32) - 1   # client and entity ids travel as uint32
U64_MAX = (1 << 64) - 1   # timestamps travel as uint64


def _is_number(obj) -> bool:
    """An int, or a finite float (Python's json reads NaN and Infinity)."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    return isinstance(obj, int) and not isinstance(obj, bool)


def _number(obj, path, minimum=None, integer=False, maximum=None):
    if not _is_number(obj):
        raise ValidationError(f"{path}: expected a finite number")
    if integer and not isinstance(obj, int):
        raise ValidationError(f"{path}: expected an integer")
    if minimum is not None and obj < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}")
    if maximum is not None and obj > maximum:
        raise ValidationError(f"{path}: must be <= {maximum}")
    return obj


def _float(obj, path):
    """A JSON number as a float; an integer beyond the double range is a
    ValidationError, not an OverflowError."""
    try:
        return float(obj)
    except OverflowError:
        raise ValidationError(f"{path}: {obj} exceeds the float range") from None


def _real(obj, path):
    return _float(_number(obj, path), path)


def _integer(obj, path):
    return _number(obj, path, integer=True)


def _point(obj, path):
    if (not isinstance(obj, list) or len(obj) != 2
            or not all(map(_is_number, obj))):
        raise ValidationError(f"{path}: expected [x, y]")
    return (_float(obj[0], path), _float(obj[1], path))


def _check_motion_range(motion, duration_ms, path):
    """Position and velocity must stay finite up to duration_ms, or the
    run would send a frame it cannot encode. A constant velocity moves
    linearly, and a waypoint path checks its segments and their velocities
    when it is built, so what is left to check is the state at
    duration_ms: the farthest position, and the arc length a looped path
    has covered by then."""
    try:
        (x, y), (vx, vy) = motion.state(duration_ms)
        finite = all(map(math.isfinite, (x, y, vx, vy)))
    except ValueError:   # fmod of an arc length beyond the float range
        finite = False
    if not finite:
        raise ValidationError(
            f"{path}: position or velocity leaves the float range before "
            f"duration_ms")


def _bool(obj, path):
    if not isinstance(obj, bool):
        raise ValidationError(f"{path}: expected a boolean")
    return obj


def _list(obj, path):
    if not isinstance(obj, list):
        raise ValidationError(f"{path}: expected a list")
    return obj


def _string(obj, path):
    if not isinstance(obj, str):
        raise ValidationError(f"{path}: expected a string")
    return obj


_LINK_KINDS = {kind.value: kind for kind in LinkKind}


def _link_kind(obj, path) -> LinkKind:
    kind = _LINK_KINDS.get(_string(obj, path))
    if kind is None:
        raise ValidationError(f"{path}: unknown link kind {obj!r}")
    return kind


# The reader of a settings field's JSON value, by the field's annotation.
_READERS = {bool: _bool, int: _integer, float: _real, float | None: _real,
            LinkKind: _link_kind}


@cache
def _readers(cls) -> tuple:
    """(name, reader, whether null is read) for each field of the settings
    dataclass cls whose annotation has a reader; null is read only where
    the field's default is None. A field of another type (a nested policy,
    a list, a pair of ids) is the caller's to read."""
    return tuple((f.name, _READERS[f.type], f.default is None)
                 for f in fields(cls) if f.type in _READERS)


def _default(cls, name):
    """The default of the field name of the settings dataclass cls."""
    return next(f.default for f in fields(cls) if f.name == name)


@cache
def _optional(cls) -> frozenset:
    """The fields of the settings dataclass cls that have a default: the
    keys a document may omit."""
    return frozenset(f.name for f in fields(cls)
                     if f.default is not MISSING
                     or f.default_factory is not MISSING)


def _fields_set(obj, path, cls) -> dict:
    """The values obj sets for cls's fields that have a reader, by name."""
    values = {}
    for name, read, nullable in _readers(cls):
        if name in obj:
            value = obj[name]
            if value is not None or not nullable:
                value = read(value, f"{path}.{name}")
            values[name] = value
    return values


def _build(make, path, *args, **values):
    """make(*args, **values), where the bounds a settings type, a region or
    a waypoint path checks raise a ValueError that begins with the key's
    name: that becomes a ValidationError naming the key's path under path.
    Any other exception is not a bad value, and propagates as itself."""
    try:
        return make(*args, **values)
    except ValueError as exc:
        raise ValidationError(f"{path}.{exc}") from None


def _settings(obj, path, base, extra=()):
    """base, an instance of a settings dataclass whose every field has a
    default, with the fields obj sets. The keys are base's field names, and
    those in extra, which the caller reads itself; a missing key keeps
    base's value."""
    _require_keys(obj, path, set(), _optional(type(base)) | set(extra))
    return _build(replace, path, base, **_fields_set(obj, path, type(base)))


def _parse_motion(obj, path) -> MotionScript:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"{path}: expected a motion object with 'kind'")
    kind = obj["kind"]
    if kind == "constant_velocity":
        _require_keys(obj, path, {"kind", "pos", "vel"}, set())
        return ConstantVelocity(_point(obj["pos"], f"{path}.pos"),
                                _point(obj["vel"], f"{path}.vel"))
    if kind == "waypoints":
        _require_keys(obj, path, {"kind", "points", "speed"}, {"loop"})
        pts = [_point(p, f"{path}.points[{i}]")
               for i, p in enumerate(_list(obj["points"], f"{path}.points"))]
        loop = ({"loop": _bool(obj["loop"], f"{path}.loop")} if "loop" in obj
                else {})
        return _build(WaypointPath, path, pts,
                      _real(obj["speed"], f"{path}.speed"), **loop)
    raise ValidationError(f"{path}.kind: unknown motion kind {kind!r}")


_EVENT_KINDS = {"fire": EventKind.FIRE, "spawn": EventKind.SPAWN,
                "despawn": EventKind.DESPAWN}


def _parse_events(items, path, last_tick):
    """The entity's event series, cut at last_tick (later events never
    fire): a (range of times, kind) pair per "first"/"every"/"count" item
    with an event at or before last_tick, in document order, then a
    (sorted tuple of times, kind) pair per kind with single "at" events.
    Grouping the singles keeps a walk's merge to one input per series and
    kind, not one per event."""
    series = []
    singles = {}     # kind -> its "at" times at or before last_tick
    for i, obj in enumerate(_list(items, path)):
        p = f"{path}[{i}]"
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError(f"{p}: expected an event object with 'kind'")
        kind = _EVENT_KINDS.get(_string(obj["kind"], f"{p}.kind"))
        if kind is None:
            raise ValidationError(f"{p}.kind: unknown event kind {obj['kind']!r}")
        if "at" in obj:
            _require_keys(obj, p, {"kind", "at"}, set())
            at = _number(obj["at"], f"{p}.at", 0, True)
            if at <= last_tick:
                singles.setdefault(kind, []).append(at)
        else:
            _require_keys(obj, p, {"kind", "first", "every", "count"}, set())
            first = _number(obj["first"], f"{p}.first", 0, True)
            every = _number(obj["every"], f"{p}.every", 1, True)
            count = _number(obj["count"], f"{p}.count", 1, True)
            if first <= last_tick:
                count = min(count, (last_tick - first) // every + 1)
                series.append((range(first, first + count * every, every),
                               kind))
    series.extend((tuple(sorted(times)), kind)
                  for kind, times in singles.items())
    return series


def walk_events(series):
    """The events of an entity's series as (at, kind) pairs, in time order
    and ties by kind: one merge over the series, each pair made as the walk
    reaches it. A walk is used once; a run builds its own."""
    return heapq.merge(*(zip(times, repeat(kind)) for times, kind in series))


def _parse_region(obj, path) -> Region:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"{path}: expected a region object with 'kind'")
    kind = obj["kind"]
    if kind == "rect":
        _require_keys(obj, path, {"kind", "min", "max"}, set())
        lo = _point(obj["min"], f"{path}.min")
        hi = _point(obj["max"], f"{path}.max")
        return _build(Rect, path, lo[0], lo[1], hi[0], hi[1])
    if kind == "circle":
        _require_keys(obj, path, {"kind", "center", "radius"}, set())
        return _build(Circle, path, _point(obj["center"], f"{path}.center"),
                      _real(obj["radius"], f"{path}.radius"))
    if kind == "anchored_circle":
        _require_keys(obj, path, {"kind", "anchor_entity", "radius"}, set())
        return _build(
            AnchoredCircle, path,
            _number(obj["anchor_entity"], f"{path}.anchor_entity", 0, True),
            _real(obj["radius"], f"{path}.radius"))
    raise ValidationError(f"{path}.kind: unknown region kind {kind!r}")


# Accepted for documents written before rollback covered events only; it
# sets nothing.
RETIRED_SCOPE = "rollback_scope"


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a decoded JSON document into a ScenarioConfig."""
    _require_keys(doc, "$", {"duration_ms", "clients"},
                  {"tick_ms", "seed", "links", "link_events", "regions",
                   "policies", "toggles"})
    duration = _number(doc["duration_ms"], "$.duration_ms", 1, True)
    tick = _number(doc.get("tick_ms", _default(ScenarioConfig, "tick_ms")),
                   "$.tick_ms", 1, True)
    seed = _number(doc.get("seed", _default(ScenarioConfig, "seed")),
                   "$.seed", 0, True)
    last_tick = duration - duration % tick

    clients = []
    client_ids = set()
    entity_ids = set()
    for i, obj in enumerate(_list(doc["clients"], "$.clients")):
        path = f"$.clients[{i}]"
        _require_keys(obj, path, {"id", "entities"}, _optional(ClientSpec))
        cid = _number(obj["id"], f"{path}.id", 0, True, U32_MAX)
        if cid in client_ids:
            raise ValidationError(f"{path}.id: duplicate client id {cid}")
        client_ids.add(cid)
        entities = []
        for j, ent in enumerate(_list(obj["entities"], f"{path}.entities")):
            epath = f"{path}.entities[{j}]"
            _require_keys(ent, epath, {"id", "motion"}, {"class", "events"})
            eid = _number(ent["id"], f"{epath}.id", 0, True, U32_MAX)
            if eid in entity_ids:
                raise ValidationError(f"{epath}.id: duplicate entity id {eid}")
            entity_ids.add(eid)
            motion = _parse_motion(ent["motion"], f"{epath}.motion")
            _check_motion_range(motion, duration, f"{epath}.motion")
            given = {}     # an omitted class or events keeps EntitySpec's
            if "class" in ent:
                given["class_id"] = _string(ent["class"], f"{epath}.class")
            if "events" in ent:
                given["events"] = _parse_events(ent["events"],
                                                f"{epath}.events", last_tick)
            entities.append(EntitySpec(entity_id=eid, motion=motion, **given))
        client = ClientSpec(cid, entities,
                            **_fields_set(obj, path, ClientSpec))
        # A client's clock reads at most duration_ms + its offset.
        _number(client.clock_offset_ms, f"{path}.clock_offset_ms",
                maximum=U64_MAX - duration)
        clients.append(client)

    links = {}       # id -> LinkSpec, in document order
    for i, obj in enumerate(_list(doc.get("links", []), "$.links")):
        path = f"$.links[{i}]"
        _require_keys(obj, path, {"id", "endpoints", "base_delay_ms"},
                      _optional(LinkSpec))
        lid = _number(obj["id"], f"{path}.id", 0, True)
        if lid in links:
            raise ValidationError(f"{path}.id: duplicate link id {lid}")
        endpoints = obj["endpoints"]
        if (not isinstance(endpoints, list) or len(endpoints) != 2
                or endpoints[0] == endpoints[1]):
            raise ValidationError(f"{path}.endpoints: expected two distinct client ids")
        for j, e in enumerate(endpoints):
            if _number(e, f"{path}.endpoints[{j}]", 0, True) not in client_ids:
                raise ValidationError(f"{path}.endpoints: unknown client {e}")
        links[lid] = _build(LinkSpec, path, lid, (endpoints[0], endpoints[1]),
                            **_fields_set(obj, path, LinkSpec))

    link_events = []
    items = _list(doc.get("link_events", []), "$.link_events")
    for i, obj in enumerate(items):
        path = f"$.link_events[{i}]"
        _require_keys(obj, path, {"at", "link"}, {"base_delay_ms", "available"})
        at = _number(obj["at"], f"{path}.at", 0, True)
        lid = _number(obj["link"], f"{path}.link", 0, True)
        if lid not in links:
            raise ValidationError(f"{path}.link: unknown link {lid}")
        changes = _fields_set(obj, path, LinkSpec)
        if not changes:
            raise ValidationError(f"{path}: needs base_delay_ms or available")
        _build(replace, path, links[lid], **changes)    # the link's bounds
        link_events.extend((at, lid, name, value)
                           for name, value in changes.items())
    link_events.sort(key=lambda e: (e[0], e[1], e[2]))

    items = _list(doc.get("regions", []), "$.regions")
    regions = [_parse_region(obj, f"$.regions[{i}]")
               for i, obj in enumerate(items)]
    for i, region in enumerate(regions):
        if isinstance(region, AnchoredCircle) and region.anchor_entity_id not in entity_ids:
            raise ValidationError(
                f"$.regions[{i}].anchor_entity: unknown entity {region.anchor_entity_id}")

    pol = doc.get("policies", {})
    policies = _settings(pol, "$.policies", PolicySet())
    policies.default = _settings(pol.get("default", {}), "$.policies.default",
                                 policies.default)
    classes = pol.get("classes", {})
    if not isinstance(classes, dict):
        raise ValidationError("$.policies.classes: expected an object")
    if DEFAULT_CLASS in classes:
        raise ValidationError(f"$.policies.classes.{DEFAULT_CLASS}: the "
                              f"default class's policy is $.policies.default")
    policies.classes = {
        name: _settings(obj, f"$.policies.classes.{name}", policies.default)
        for name, obj in classes.items()}

    tog = doc.get("toggles", {})
    toggles = _settings(tog, "$.toggles", Toggles(), (RETIRED_SCOPE,))
    if tog.get(RETIRED_SCOPE, "all") not in ("all", "events"):
        raise ValidationError(
            f"$.toggles.{RETIRED_SCOPE}: must be 'all' or 'events'")

    return ScenarioConfig(duration_ms=duration, tick_ms=tick, seed=seed,
                          clients=clients, links=list(links.values()),
                          link_events=link_events, regions=regions,
                          policies=policies, toggles=toggles)


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_scenario(doc)
