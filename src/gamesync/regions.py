"""Critical regions: geometry, membership tests, and the Normal/Strong
consistency-mode state machine.

A region is an axis-aligned rectangle, a fixed circle, or a circle anchored
to an entity (it moves with the entity). While an entity is inside any
region its stream runs in strong mode: the dead-reckoning threshold and the
local-lag value are scaled down. Entry is immediate; exit keeps strong mode
for a short hysteresis window to avoid flapping at boundaries.
"""

from dataclasses import dataclass
from enum import Enum

from gamesync.deadreckoning import dist

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


def contains(region: Region, point: tuple[float, float],
             entity_positions: dict | None = None) -> bool:
    """Inclusive geometric containment.

    AnchoredCircle centers on the anchor entity's latest known position from
    entity_positions; raises UnknownAnchor if it has none.
    """
    x, y = point
    if isinstance(region, Rect):
        return region.min_x <= x <= region.max_x and region.min_y <= y <= region.max_y
    if isinstance(region, Circle):
        return dist(x, y, region.center[0], region.center[1]) <= region.radius
    anchor = None if entity_positions is None else entity_positions.get(region.anchor_entity_id)
    if anchor is None:
        raise UnknownAnchor(f"no known position for entity {region.anchor_entity_id}")
    return dist(x, y, anchor[0], anchor[1]) <= region.radius


class RegionSet:
    """Registered regions with stable, unique integer ids."""

    def __init__(self):
        self._regions: dict[int, Region] = {}
        self._next_id = 0

    def add(self, region: Region) -> int:
        region_id = self._next_id
        self._next_id += 1
        self._regions[region_id] = region
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
        for region in self._regions.values():
            try:
                if contains(region, point, entity_positions):
                    return True
            except UnknownAnchor:
                continue
        return False


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
        self.exit_hysteresis_ms = exit_hysteresis_ms
        self._last_inside: dict[int, int] = {}

    def mode_for(self, entity_id: int, pos: tuple[float, float],
                 entity_positions: dict | None, now: int) -> ConsistencyMode:
        if self.regions.any_contains(pos, entity_positions):
            self._last_inside[entity_id] = now
            return ConsistencyMode.STRONG
        last = self._last_inside.get(entity_id)
        if last is not None and now - last <= self.exit_hysteresis_ms:
            return ConsistencyMode.STRONG
        return ConsistencyMode.NORMAL
