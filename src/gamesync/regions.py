"""Critical regions: geometry, membership tests, and the Normal/Strong
consistency-mode state machine.

A region is an axis-aligned rectangle, a fixed circle, or a circle anchored
to an entity (it moves with the entity). While an entity is inside any
region its stream runs in strong mode: the dead-reckoning threshold and the
local-lag value are scaled down. Entry is immediate; exit keeps strong mode
for a short hysteresis window to avoid flapping at boundaries.

Containment is written once, in `_inside`, over flat per-kind records: a
rect as (min_x, min_y, max_x, max_y), a circle as (cx, cy, r) and an
anchored circle as (anchor, r), each tagged with its kind. A RegionSet keeps
the record of every region it holds, so testing a point against all of them
is one loop with no per-region function call; RegionSet.any_contains is the
one way a point is tested. An anchored circle whose anchor has no known
position contains nothing. Circles compare sqrt(dx*dx + dy*dy) with the
radius, the formula of `deadreckoning.dist`, so a point on a boundary gets
the same answer everywhere.

Each region checks its geometry when it is built and raises
InvalidGeometry, a ValueError whose message begins with the document key it
names (a circle's "radius", a rect's "min"), so the scenario parser reports
it as it reports a settings type's bound: naming the key's path.
"""

from dataclasses import dataclass
from enum import Enum
from math import sqrt

EXIT_HYSTERESIS_MS = 250


class InvalidGeometry(ValueError):
    """A region's geometry is out of bounds. The message begins with the
    region's document key: "radius must be > 0", "min must be <= max"."""


@dataclass(frozen=True)
class Rect:
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        if not (self.min_x <= self.max_x and self.min_y <= self.max_y):
            raise InvalidGeometry("min must be <= max")


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidGeometry("radius must be > 0")


@dataclass(frozen=True)
class AnchoredCircle:
    anchor_entity_id: int
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidGeometry("radius must be > 0")


Region = Rect | Circle | AnchoredCircle

_RECT, _CIRCLE, _ANCHORED = range(3)


def _record(region: Region) -> tuple:
    """The region's kind tag and flat record."""
    if isinstance(region, Rect):
        return _RECT, (region.min_x, region.min_y, region.max_x, region.max_y)
    if isinstance(region, Circle):
        return _CIRCLE, (region.center[0], region.center[1], region.radius)
    return _ANCHORED, (region.anchor_entity_id, region.radius)


def _inside(records, point, entity_positions) -> bool:
    """True if the point is inside any of the tagged records (inclusive).

    An anchored circle centres on its anchor's position in
    entity_positions; without one it is skipped."""
    x, y = point
    for kind, record in records:
        if kind == _RECT:
            min_x, min_y, max_x, max_y = record
            if min_x <= x <= max_x and min_y <= y <= max_y:
                return True
            continue
        if kind == _CIRCLE:
            cx, cy, r = record
        else:
            anchor, r = record
            center = (None if entity_positions is None
                      else entity_positions.get(anchor))
            if center is None:
                continue
            cx, cy = center
        dx = cx - x
        dy = cy - y
        if sqrt(dx * dx + dy * dy) <= r:
            return True
    return False


class RegionSet:
    """Registered regions with stable, unique integer ids."""

    def __init__(self):
        self._records: list[tuple] = []   # _record of each, in id order

    def add(self, region: Region) -> int:
        self._records.append(_record(region))
        return len(self._records) - 1

    def __len__(self):
        return len(self._records)

    def any_contains(self, point, entity_positions=None) -> bool:
        """True if the point is inside any region.

        Anchored regions whose anchor has no known position yet cannot
        contain anything and are skipped.
        """
        return _inside(self._records, point, entity_positions)


class ConsistencyMode(Enum):
    NORMAL = "normal"
    STRONG = "strong"


class ModeTracker:
    """Per-entity Normal/Strong mode with exit hysteresis.

    Strong while inside any region, and for exit_hysteresis_ms after last
    being inside. The caller tests the point against the regions
    (RegionSet.any_contains) and hands the tracker the result, so a caller
    that needs the containment for something else too tests it once."""

    def __init__(self, exit_hysteresis_ms: int = EXIT_HYSTERESIS_MS):
        self.exit_hysteresis_ms = exit_hysteresis_ms
        self._last_inside: dict[int, int] = {}

    def mode_for(self, entity_id: int, inside: bool,
                 now: int) -> ConsistencyMode:
        """The entity's mode at now, given whether its point is inside a
        region at now."""
        if inside:
            self._last_inside[entity_id] = now
            return ConsistencyMode.STRONG
        last = self._last_inside.get(entity_id)
        if last is not None and now - last <= self.exit_hysteresis_ms:
            return ConsistencyMode.STRONG
        return ConsistencyMode.NORMAL
