"""Scenario definitions: a strict JSON schema describing clients, scripted
entity motion, links, regions, policies, and toggles.

Motion scripts are closed-form (position as a pure function of virtual
time), which is what gives the metrics an exact ground-truth oracle. Unknown
keys anywhere in the document are rejected, and so is a value of the wrong
type: every failure is a ValidationError naming the field. The "policies"
and "toggles" objects parse into the Medium's own PolicySet and Toggles
(gamesync.player), and a missing key takes the default those types define.
One key is retired: "toggles.rollback_scope" is still accepted, as "all" or
"events" and nothing else, but it maps to no field and has no effect,
because rollback covers events only.

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

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields

from gamesync.locallag import DEFAULT_CLASS
from gamesync.overlay import LinkKind, LinkSpec
from gamesync.pdu import EventKind
from gamesync.player import ClassPolicy, PolicySet, Toggles
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
    unless loop is set."""

    def __init__(self, points, speed: float, loop: bool = False):
        if len(points) < 2:
            raise ValidationError("motion.points needs at least 2 points")
        if speed <= 0:
            raise ValidationError("motion.speed must be > 0")
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
                raise ValidationError("motion.points contains a zero-length segment")
            scale = self.speed / length
            if not all(map(math.isfinite, (b[0] - a[0], b[1] - a[1],
                                           (b[0] - a[0]) * scale,
                                           (b[1] - a[1]) * scale))):
                raise ValidationError(
                    "motion.points: a segment or its velocity exceeds the "
                    "float range")
            self._segments.append((a, b, length))
            self._cum.append(self._cum[-1] + length)
        self.total = self._cum[-1]
        if not math.isfinite(self.total):
            raise ValidationError("motion.points: the path length exceeds "
                                  "the float range")

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
    class_id: str
    motion: MotionScript
    events: list = field(default_factory=list)   # [(at_ms, EventKind), ...]


@dataclass
class ClientSpec:
    client_id: int
    entities: list
    direct_address_known: bool = True
    clock_offset_ms: int = 0


@dataclass
class ScenarioConfig:
    duration_ms: int
    tick_ms: int
    seed: int
    clients: list
    links: list
    link_events: list                       # [(at, link_id, field, value)]
    regions: list
    policies: PolicySet
    toggles: Toggles


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


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


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


def _real(obj, path, minimum=None):
    return _float(_number(obj, path, minimum), path)


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
        return WaypointPath(pts, _real(obj["speed"], f"{path}.speed"),
                            _bool(obj.get("loop", False), f"{path}.loop"))
    raise ValidationError(f"{path}.kind: unknown motion kind {kind!r}")


_EVENT_KINDS = {"fire": EventKind.FIRE, "spawn": EventKind.SPAWN,
                "despawn": EventKind.DESPAWN}


def _parse_events(items, path, duration_ms):
    """The entity's events at or before duration_ms, in time order; later
    ones never fire, and a series is never expanded past the run's end."""
    events = []
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
            if at <= duration_ms:
                events.append((at, kind))
        else:
            _require_keys(obj, p, {"kind", "first", "every", "count"}, set())
            first = _number(obj["first"], f"{p}.first", 0, True)
            every = _number(obj["every"], f"{p}.every", 1, True)
            count = _number(obj["count"], f"{p}.count", 1, True)
            if first <= duration_ms:
                count = min(count, (duration_ms - first) // every + 1)
                events.extend((first + k * every, kind) for k in range(count))
    events.sort()
    return events


def _parse_region(obj, path) -> Region:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"{path}: expected a region object with 'kind'")
    kind = obj["kind"]
    try:
        if kind == "rect":
            _require_keys(obj, path, {"kind", "min", "max"}, set())
            lo = _point(obj["min"], f"{path}.min")
            hi = _point(obj["max"], f"{path}.max")
            return Rect(lo[0], lo[1], hi[0], hi[1])
        if kind == "circle":
            _require_keys(obj, path, {"kind", "center", "radius"}, set())
            return Circle(_point(obj["center"], f"{path}.center"),
                          _real(obj["radius"], f"{path}.radius"))
        if kind == "anchored_circle":
            _require_keys(obj, path, {"kind", "anchor_entity", "radius"}, set())
            return AnchoredCircle(
                _number(obj["anchor_entity"], f"{path}.anchor_entity", 0, True),
                _real(obj["radius"], f"{path}.radius"))
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    raise ValidationError(f"{path}.kind: unknown region kind {kind!r}")


def _parse_class_policy(obj, path, base: ClassPolicy) -> ClassPolicy:
    _require_keys(obj, path, set(), _field_names(ClassPolicy))
    return ClassPolicy(
        threshold_m=_real(obj.get("threshold_m", base.threshold_m),
                          f"{path}.threshold_m", 1e-9),
        convergence_ms=_number(obj.get("convergence_ms", base.convergence_ms),
                               f"{path}.convergence_ms", 0, True),
        lag_ms=_number(obj.get("lag_ms", base.lag_ms), f"{path}.lag_ms", 0, True))


_LINK_KINDS = {"relay": LinkKind.RELAY, "direct": LinkKind.DIRECT}

# Accepted for documents written before rollback covered events only; it
# sets nothing.
RETIRED_SCOPE = "rollback_scope"


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a decoded JSON document into a ScenarioConfig."""
    _require_keys(doc, "$", {"duration_ms", "clients"},
                  {"tick_ms", "seed", "links", "link_events", "regions",
                   "policies", "toggles"})
    duration = _number(doc["duration_ms"], "$.duration_ms", 1, True)
    tick = _number(doc.get("tick_ms", 50), "$.tick_ms", 1, True)
    seed = _number(doc.get("seed", 1), "$.seed", 0, True)

    clients = []
    client_ids = set()
    entity_ids = set()
    for i, obj in enumerate(_list(doc["clients"], "$.clients")):
        path = f"$.clients[{i}]"
        _require_keys(obj, path, {"id", "entities"},
                      {"direct_address_known", "clock_offset_ms"})
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
            entities.append(EntitySpec(
                entity_id=eid,
                class_id=_string(ent.get("class", DEFAULT_CLASS),
                                 f"{epath}.class"),
                motion=motion,
                events=_parse_events(ent.get("events", []), f"{epath}.events",
                                     duration)))
        # A client's clock reads at most duration_ms + its offset.
        clients.append(ClientSpec(
            client_id=cid, entities=entities,
            direct_address_known=_bool(obj.get("direct_address_known", True),
                                       f"{path}.direct_address_known"),
            clock_offset_ms=_number(obj.get("clock_offset_ms", 0),
                                    f"{path}.clock_offset_ms", None, True,
                                    U64_MAX - duration)))

    links = []
    link_ids = set()
    for i, obj in enumerate(_list(doc.get("links", []), "$.links")):
        path = f"$.links[{i}]"
        _require_keys(obj, path, {"id", "endpoints", "base_delay_ms"},
                      {"jitter_ms", "loss_prob", "kind", "available"})
        lid = _number(obj["id"], f"{path}.id", 0, True)
        if lid in link_ids:
            raise ValidationError(f"{path}.id: duplicate link id {lid}")
        link_ids.add(lid)
        endpoints = obj["endpoints"]
        if (not isinstance(endpoints, list) or len(endpoints) != 2
                or endpoints[0] == endpoints[1]):
            raise ValidationError(f"{path}.endpoints: expected two distinct client ids")
        for j, e in enumerate(endpoints):
            if _number(e, f"{path}.endpoints[{j}]", 0, True) not in client_ids:
                raise ValidationError(f"{path}.endpoints: unknown client {e}")
        kind = _string(obj.get("kind", "relay"), f"{path}.kind")
        if kind not in _LINK_KINDS:
            raise ValidationError(f"{path}.kind: unknown link kind {kind!r}")
        try:
            links.append(LinkSpec(
                link_id=lid, endpoints=(endpoints[0], endpoints[1]),
                base_delay_ms=_number(obj["base_delay_ms"],
                                      f"{path}.base_delay_ms", 0, True),
                jitter_ms=_number(obj.get("jitter_ms", 0), f"{path}.jitter_ms", 0, True),
                loss_prob=_real(obj.get("loss_prob", 0.0), f"{path}.loss_prob", 0),
                kind=_LINK_KINDS[kind],
                available=_bool(obj.get("available", True), f"{path}.available")))
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    link_events = []
    items = _list(doc.get("link_events", []), "$.link_events")
    for i, obj in enumerate(items):
        path = f"$.link_events[{i}]"
        _require_keys(obj, path, {"at", "link"}, {"base_delay_ms", "available"})
        at = _number(obj["at"], f"{path}.at", 0, True)
        lid = _number(obj["link"], f"{path}.link", 0, True)
        if lid not in link_ids:
            raise ValidationError(f"{path}.link: unknown link {lid}")
        if "base_delay_ms" in obj:
            link_events.append((at, lid, "base_delay_ms",
                                _number(obj["base_delay_ms"],
                                        f"{path}.base_delay_ms", 0, True)))
        if "available" in obj:
            link_events.append((at, lid, "available",
                                _bool(obj["available"], f"{path}.available")))
        if "base_delay_ms" not in obj and "available" not in obj:
            raise ValidationError(f"{path}: needs base_delay_ms or available")
    link_events.sort(key=lambda e: (e[0], e[1], e[2]))

    items = _list(doc.get("regions", []), "$.regions")
    regions = [_parse_region(obj, f"$.regions[{i}]")
               for i, obj in enumerate(items)]
    for i, region in enumerate(regions):
        if isinstance(region, AnchoredCircle) and region.anchor_entity_id not in entity_ids:
            raise ValidationError(
                f"$.regions[{i}].anchor_entity: unknown entity {region.anchor_entity_id}")

    pol = doc.get("policies", {})
    _require_keys(pol, "$.policies", set(), _field_names(PolicySet))
    base = PolicySet()
    default = _parse_class_policy(pol.get("default", {}), "$.policies.default",
                                  base.default)
    classes_obj = pol.get("classes", {})
    if not isinstance(classes_obj, dict):
        raise ValidationError("$.policies.classes: expected an object")
    classes = {name: _parse_class_policy(obj, f"$.policies.classes.{name}",
                                         default)
               for name, obj in classes_obj.items()}

    def setting(key, minimum, integer=False):
        value = pol.get(key, getattr(base, key))
        if integer:
            return _number(value, f"$.policies.{key}", minimum, True)
        return _real(value, f"$.policies.{key}", minimum)

    radius = pol.get("critical_proximity_radius_m")
    if radius is not None:
        radius = setting("critical_proximity_radius_m", 0)
    policies = PolicySet(
        default=default, classes=classes,
        critical_threshold_scale=setting("critical_threshold_scale", 1e-9),
        critical_lag_scale=setting("critical_lag_scale", 1e-9),
        heartbeat_ms=setting("heartbeat_ms", 1, True),
        ewma_alpha=setting("ewma_alpha", 1e-9),
        exit_hysteresis_ms=setting("exit_hysteresis_ms", 0, True),
        route_hysteresis_ms=setting("route_hysteresis_ms", 0, True),
        idle_ping_ms=setting("idle_ping_ms", 1, True),
        critical_proximity_radius_m=radius)
    for key in ("critical_threshold_scale", "critical_lag_scale",
                "ewma_alpha"):
        if not 0 < getattr(policies, key) <= 1:
            raise ValidationError(f"$.policies.{key}: must be in (0, 1]")

    tog = doc.get("toggles", {})
    _require_keys(tog, "$.toggles", set(),
                  _field_names(Toggles) | {RETIRED_SCOPE})
    if tog.get(RETIRED_SCOPE, "all") not in ("all", "events"):
        raise ValidationError(
            f"$.toggles.{RETIRED_SCOPE}: must be 'all' or 'events'")
    base = Toggles()

    def switch(key):
        return _bool(tog.get(key, getattr(base, key)), f"$.toggles.{key}")

    toggles = Toggles(overlay=switch("overlay"),
                      sender_side_lag=switch("sender_side_lag"),
                      receiver_side_lag=switch("receiver_side_lag"),
                      critical_tightening=switch("critical_tightening"))

    return ScenarioConfig(duration_ms=duration, tick_ms=tick, seed=seed,
                          clients=clients, links=links,
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
