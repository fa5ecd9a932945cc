"""Region geometry and the consistency-mode state machine. A point is
tested only through RegionSet.any_contains, so one region's geometry is
tested on a set that holds it alone."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamesync.deadreckoning import dist
from gamesync.regions import (AnchoredCircle, Circle, ConsistencyMode,
                              InvalidGeometry, ModeTracker, Rect, RegionSet)


def contains(region, point, positions=None):
    """Containment of the point in a set holding the region alone."""
    regions = RegionSet()
    regions.add(region)
    return regions.any_contains(point, positions)


def test_rect_membership():
    r = Rect(0, 0, 10, 10)
    assert contains(r, (5, 5))
    assert not contains(r, (10.1, 5))
    assert contains(r, (10, 10))       # boundary inclusive
    assert contains(r, (0, 0))


def test_circle_boundary_inclusive():
    c = Circle((0.0, 0.0), 2.0)
    assert contains(c, (0.0, 2.0))
    assert not contains(c, (0.0, 2.0000001))


def test_anchored_circle_3_4_5():
    region = AnchoredCircle(3, 5.0)
    positions = {3: (100.0, 0.0)}
    assert contains(region, (103.0, 4.0), positions)        # distance exactly 5
    assert not contains(region, (103.0, 4.1), positions)


def test_anchored_circle_follows_anchor():
    region = AnchoredCircle(3, 5.0)
    assert contains(region, (3.0, 4.0), {3: (0.0, 0.0)})
    assert not contains(region, (3.0, 4.0), {3: (50.0, 0.0)})


def test_invalid_geometry():
    with pytest.raises(InvalidGeometry):
        Circle((0.0, 0.0), 0.0)
    with pytest.raises(InvalidGeometry):
        AnchoredCircle(1, -2.0)
    with pytest.raises(InvalidGeometry):
        Rect(5, 0, 4, 10)


def test_region_ids_stable_and_unique():
    regions = RegionSet()
    assert regions.add(Rect(90, -10, 100, 10)) == 0
    assert regions.add(AnchoredCircle(3, 5.0)) == 1
    assert len(regions) == 2
    assert regions.any_contains((95.0, 0.0), {})


def test_any_contains_skips_unanchored():
    regions = RegionSet()
    regions.add(AnchoredCircle(7, 5.0))
    assert regions.any_contains((0.0, 0.0), {}) is False
    assert regions.any_contains((0.0, 0.0), {7: (1.0, 1.0)}) is True


def mode_at(tracker, regions, entity, point, t):
    """The tracker's mode for the entity at point, given the set's
    containment of it."""
    return tracker.mode_for(entity, regions.any_contains(point, {}), t)


def test_mode_never_inside_is_normal():
    regions = RegionSet()
    regions.add(Rect(90, -10, 100, 10))
    tracker = ModeTracker()
    assert mode_at(tracker, regions, 1, (0.0, 0.0), 0) is ConsistencyMode.NORMAL


def test_mode_inside_is_strong():
    regions = RegionSet()
    regions.add(Rect(90, -10, 100, 10))
    tracker = ModeTracker()
    assert mode_at(tracker, regions, 1, (95.0, 0.0), 0) is ConsistencyMode.STRONG


def test_exit_hysteresis_per_ms_trace():
    """Inside until t=1000: strong through 1250, normal from 1251."""
    regions = RegionSet()
    regions.add(Rect(0, 0, 10, 10))
    tracker = ModeTracker(exit_hysteresis_ms=250)
    for t in range(0, 1001):
        assert mode_at(tracker, regions, 1, (5.0, 5.0), t) is ConsistencyMode.STRONG
    for t in range(1001, 1251):
        assert mode_at(tracker, regions, 1, (50.0, 50.0), t) is ConsistencyMode.STRONG
    assert mode_at(tracker, regions, 1, (50.0, 50.0), 1251) is ConsistencyMode.NORMAL


def test_reentry_is_immediate():
    regions = RegionSet()
    regions.add(Rect(0, 0, 10, 10))
    tracker = ModeTracker()
    assert mode_at(tracker, regions, 1, (50.0, 0.0), 0) is ConsistencyMode.NORMAL
    assert mode_at(tracker, regions, 1, (5.0, 5.0), 1) is ConsistencyMode.STRONG


def test_membership_is_pure():
    r = Rect(0, 0, 10, 10)
    for _ in range(5):
        assert contains(r, (3.0, 3.0)) is True
        assert contains(r, (30.0, 3.0)) is False


def test_modes_tracked_per_entity():
    regions = RegionSet()
    regions.add(Rect(0, 0, 10, 10))
    tracker = ModeTracker(exit_hysteresis_ms=250)
    assert mode_at(tracker, regions, 1, (5.0, 5.0), 100) is ConsistencyMode.STRONG
    assert mode_at(tracker, regions, 2, (50.0, 5.0), 100) is ConsistencyMode.NORMAL
    # entity 1's hysteresis does not leak onto entity 2
    assert mode_at(tracker, regions, 2, (50.0, 5.0), 200) is ConsistencyMode.NORMAL
    assert mode_at(tracker, regions, 1, (50.0, 5.0), 200) is ConsistencyMode.STRONG


# -- the flat records against the per-region geometry --------------------

def _inside_by_kind(region, point, positions):
    """Containment written per region type, as the tests above state it;
    None for an anchored circle whose anchor has no position."""
    x, y = point
    if isinstance(region, Rect):
        return (region.min_x <= x <= region.max_x
                and region.min_y <= y <= region.max_y)
    if isinstance(region, Circle):
        return dist(x, y, region.center[0], region.center[1]) <= region.radius
    anchor = positions.get(region.anchor_entity_id)
    if anchor is None:
        return None
    return dist(x, y, anchor[0], anchor[1]) <= region.radius


# Small integer geometry puts many points exactly on an edge or a circle
# (3-4-5 offsets included); the float draws cover the rest.
_COORD = st.one_of(st.integers(-12, 12).map(float),
                   st.floats(-15.0, 15.0, allow_nan=False))
_RADIUS = st.one_of(st.sampled_from([1.0, 2.5, 5.0, 10.0]),
                    st.floats(0.01, 20.0))


@st.composite
def _rect(draw):
    xs = sorted((draw(_COORD), draw(_COORD)))
    ys = sorted((draw(_COORD), draw(_COORD)))
    return Rect(xs[0], ys[0], xs[1], ys[1])


_REGION = st.one_of(
    _rect(),
    st.builds(Circle, st.tuples(_COORD, _COORD), _RADIUS),
    st.builds(AnchoredCircle, st.integers(0, 3), _RADIUS))


@given(st.lists(_REGION, max_size=6), st.tuples(_COORD, _COORD),
       st.dictionaries(st.integers(0, 3), st.tuples(_COORD, _COORD),
                       max_size=3))
def test_any_contains_matches_contains_per_region(regions, point, positions):
    region_set = RegionSet()
    expected = False
    for region in regions:
        region_set.add(region)
        want = _inside_by_kind(region, point, positions)
        if want is None:    # an anchor with no position contains nothing
            assert contains(region, point, positions) is False
            continue
        assert contains(region, point, positions) is want
        expected = expected or want
    assert region_set.any_contains(point, positions) is expected


def test_boundary_points_are_inside():
    # on the rim by exact arithmetic: a 3-4-5 offset from the centre
    regions = RegionSet()
    regions.add(Circle((1.0, 1.0), 5.0))
    assert regions.any_contains((4.0, 5.0)) is True
    assert regions.any_contains((4.0, 5.000001)) is False
    edge = RegionSet()
    edge.add(Rect(0.0, 0.0, 2.0, 2.0))
    assert edge.any_contains((2.0, 0.0)) is True
    assert edge.any_contains((2.0000001, 0.0)) is False
