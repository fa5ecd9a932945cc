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
is one loop with no per-region function call, and `contains` tests a single
region through the same loop. Circles compare sqrt(dx*dx + dy*dy) with the
radius, the formula of `deadreckoning.dist`, so a point on a boundary gets
the same answer everywhere.
"""

from dataclasses import dataclass
from enum import Enum
from math import sqrt

EXIT_HYSTERESIS_MS = 250


class InvalidGeometry(Exception):
    pass


class UnknownAnchor(Exception):
    pass


@dataclass(frozen=True)
class Rect:
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise InvalidGeometry(f"rect min > max: {self}")


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidGeometry(f"radius must be > 0: {self}")


@dataclass(frozen=True)
class AnchoredCircle:
    anchor_entity_id: int
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidGeometry(f"radius must be > 0: {self}")


Region = Rect | Circle | AnchoredCircle

_RECT, _CIRCLE, _ANCHORED = range(3)


def _record(region: Region) -> tuple:
    """The region's kind tag and flat record."""
    if isinstance(region, Rect):
        return _RECT, (region.min_x, region.min_y, region.max_x, region.max_y)
    if isinstance(region, Circle):
        return _CIRCLE, (region.center[0], region.center[1], region.radius)
    return _ANCHORED, (region.anchor_entity_id, region.radius)


def _inside(records, point, entity_positions, skip_unknown: bool) -> bool:
    """True if the point is inside any of the tagged records (inclusive).

    An anchored circle centres on its anchor's position in
    entity_positions. Without one it is skipped, or raises UnknownAnchor
    unless skip_unknown is set."""
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
                if skip_unknown:
                    continue
                raise UnknownAnchor(f"no known position for entity {anchor}")
            cx, cy = center
        dx = cx - x
        dy = cy - y
        if sqrt(dx * dx + dy * dy) <= r:
            return True
    return False


def contains(region: Region, point: tuple[float, float],
             entity_positions: dict | None = None) -> bool:
    """Inclusive geometric containment.

    AnchoredCircle centers on the anchor entity's latest known position from
    entity_positions; raises UnknownAnchor if it has none.
    """
    return _inside((_record(region),), point, entity_positions, False)


class RegionSet:
    """Registered regions with stable, unique integer ids."""

    def __init__(self):
        self._regions: dict[int, Region] = {}
        self._records: list[tuple] = []   # _record of each, in id order
        self._next_id = 0

    def add(self, region: Region) -> int:
        region_id = self._next_id
        self._next_id += 1
        self._regions[region_id] = region
        self._records.append(_record(region))
        return region_id

    def __len__(self):
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions.items())

    def get(self, region_id: int) -> Region:
        return self._regions[region_id]

    def any_contains(self, point, entity_positions=None) -> bool:
        """True if the point is inside any region.

        Anchored regions whose anchor has no known position yet cannot
        contain anything and are skipped.
        """
        return _inside(self._records, point, entity_positions, True)


class ConsistencyMode(Enum):
    NORMAL = "normal"
    STRONG = "strong"


class ModeTracker:
    """Per-entity Normal/Strong mode with exit hysteresis.

    Strong while inside any region, and for exit_hysteresis_ms after last
    being inside.
    """

    def __init__(self, regions: RegionSet,
                 exit_hysteresis_ms: int = EXIT_HYSTERESIS_MS):
        self.regions = regions
        # The set's record list itself (add appends to it), walked here
        # directly so that evaluating a mode costs one call into the
        # geometry, not two.
        self._records = regions._records
        self.exit_hysteresis_ms = exit_hysteresis_ms
        self._last_inside: dict[int, int] = {}

    def mode_for(self, entity_id: int, pos: tuple[float, float],
                 entity_positions: dict | None, now: int) -> ConsistencyMode:
        if _inside(self._records, pos, entity_positions, True):
            self._last_inside[entity_id] = now
            return ConsistencyMode.STRONG
        last = self._last_inside.get(entity_id)
        if last is not None and now - last <= self.exit_hysteresis_ms:
            return ConsistencyMode.STRONG
        return ConsistencyMode.NORMAL
