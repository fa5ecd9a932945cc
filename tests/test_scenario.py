"""Scenario schema: strict validation, defaults, and motion scripts."""

import json
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import gamesync.cli as cli
from conftest import minimal_doc, two_client_doc
from gamesync.overlay import LinkKind
from gamesync.player import Toggles
from gamesync.regions import Rect
from gamesync.scenario import (ConstantVelocity, ParseError, ValidationError,
                               WaypointPath, load_scenario, parse_scenario)


def test_minimal_config_loads_with_defaults():
    config = parse_scenario(minimal_doc())
    assert config.tick_ms == 50
    assert config.seed == 1
    assert config.links == []
    assert config.policies.default.threshold_m == 0.5
    assert config.policies.default.convergence_ms == 200
    assert config.policies.critical_threshold_scale == 0.25
    assert config.policies.critical_lag_scale == 0.5
    assert config.toggles.overlay is False
    assert config.toggles == Toggles()
    assert config.clients[0].entities[0].class_id == "default"


def test_unknown_top_level_key_rejected():
    doc = minimal_doc()
    doc["surprise"] = 1
    with pytest.raises(ValidationError, match="surprise"):
        parse_scenario(doc)


def test_unknown_nested_keys_rejected():
    doc = minimal_doc()
    doc["clients"][0]["entities"][0]["motion"]["warp"] = True
    with pytest.raises(ValidationError, match="motion"):
        parse_scenario(doc)
    doc = minimal_doc()
    doc["policies"] = {"defualt": {}}
    with pytest.raises(ValidationError, match="policies"):
        parse_scenario(doc)
    doc = minimal_doc()
    doc["toggles"] = {"overlays": True}
    with pytest.raises(ValidationError, match="toggles"):
        parse_scenario(doc)
    doc = minimal_doc()
    doc["clients"].append({"id": 1, "entities": []})
    doc["links"] = [{"id": 0, "endpoints": [0, 1], "base_delay_ms": 10,
                     "jitter_ms": 5, "jitter_dist": "uniform"}]
    with pytest.raises(ValidationError, match=r"links\[0\].*jitter_dist"):
        parse_scenario(doc)


def test_link_with_unknown_client_named_in_error():
    doc = minimal_doc()
    doc["links"] = [{"id": 0, "endpoints": [0, 9], "base_delay_ms": 10}]
    with pytest.raises(ValidationError, match=r"links\[0\]"):
        parse_scenario(doc)


def test_link_event_referencing_undefined_link():
    doc = minimal_doc()
    doc["link_events"] = [{"at": 10, "link": 5, "base_delay_ms": 1}]
    with pytest.raises(ValidationError, match=r"link_events\[0\]"):
        parse_scenario(doc)


def test_duplicate_ids_rejected():
    doc = minimal_doc()
    doc["clients"].append({"id": 0, "entities": []})
    with pytest.raises(ValidationError, match="duplicate client"):
        parse_scenario(doc)
    doc = minimal_doc()
    doc["clients"][0]["entities"].append(
        {"id": 0, "motion": {"kind": "constant_velocity", "pos": [0, 0],
                             "vel": [0, 0]}})
    with pytest.raises(ValidationError, match="duplicate entity"):
        parse_scenario(doc)


def test_anchored_region_unknown_entity_rejected():
    doc = minimal_doc()
    doc["regions"] = [{"kind": "anchored_circle", "anchor_entity": 42,
                       "radius": 5}]
    with pytest.raises(ValidationError, match=r"regions\[0\]"):
        parse_scenario(doc)


def test_invalid_region_geometry_reported():
    doc = minimal_doc()
    doc["regions"] = [{"kind": "circle", "center": [0, 0], "radius": 0}]
    with pytest.raises(ValidationError, match=r"regions\[0\]"):
        parse_scenario(doc)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"duration_ms": 5,,}')
    with pytest.raises(ParseError, match="line 1"):
        load_scenario(path)


def test_rollback_scope_validated():
    """The retired key is accepted with either value, sets nothing, and
    still rejects any other value."""
    toggles = [parse_scenario(dict(minimal_doc(), toggles=tog)).toggles
               for tog in ({}, {"rollback_scope": "all"},
                           {"rollback_scope": "events"})]
    assert toggles[0] == toggles[1] == toggles[2]
    doc = minimal_doc()
    doc["toggles"] = {"rollback_scope": "sometimes"}
    with pytest.raises(ValidationError, match="rollback_scope"):
        parse_scenario(doc)


def test_has_gps_clock_key_rejected():
    doc = minimal_doc()
    doc["clients"][0]["has_gps_clock"] = False
    with pytest.raises(ValidationError, match="has_gps_clock"):
        parse_scenario(doc)


# (path into the shipped carrace document, malformed value, the field the
# error must name)
MALFORMED = [
    (("clients",), 5, r"\$\.clients"),
    (("clients", 0, "entities"), 5, r"clients\[0\]\.entities"),
    (("clients", 0, "entities", 0, "events"), 5, r"entities\[0\]\.events"),
    (("links",), 5, r"\$\.links"),
    (("regions",), 5, r"\$\.regions"),
    (("policies", "classes"), [1], r"policies\.classes"),
    (("links", 0, "endpoints"), [[0], [1]], r"links\[0\]\.endpoints"),
    (("links", 0, "kind"), [1], r"links\[0\]\.kind"),
    (("link_events",), [{"at": 0, "link": [0], "available": False}],
     r"link_events\[0\]\.link"),
    # a link reference is an integer id: 0.0 would name client or link 0,
    # yet print as 0.0 in the trace
    (("links", 0, "endpoints"), [0.0, 1], r"links\[0\]\.endpoints\[0\]"),
    (("link_events",), [{"at": 0, "link": 0.0, "available": False}],
     r"link_events\[0\]\.link"),
    (("clients", 0, "entities", 0, "events"), [{"kind": [1], "at": 0}],
     r"events\[0\]\.kind"),
    (("clients", 0, "entities", 0, "class"), [1], r"entities\[0\]\.class"),
    (("clients", 0, "entities", 0, "motion", "speed"), float("inf"),
     r"motion\.speed"),
    (("clients", 0, "entities", 0, "motion", "points", 0), [float("nan"), 0],
     r"motion\.points\[0\]"),
]


@pytest.mark.parametrize(
    "path, value, named", MALFORMED,
    ids=[".".join(map(str, p)) + "=" + json.dumps(v) for p, v, _ in MALFORMED])
def test_malformed_document_raises_validation_error(scenarios_dir, path,
                                                    value, named):
    doc = json.loads((scenarios_dir / "carrace.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValidationError, match=named):
        parse_scenario(doc)


# Numbers the parser accepted and the run could not hold: (base document,
# edits as (path, value), the field the error must name). A float beyond
# the double range, an id beyond the uint32 wire field, a clock that passes
# the uint64 timestamp before duration_ms, and a constant velocity whose
# position leaves the double range before duration_ms.
OUT_OF_RANGE = [
    ("carrace", [(("clients", 0, "entities", 0, "motion", "points", 0),
                  [10**400, 0])], r"motion\.points\[0\]"),
    ("carrace", [(("clients", 0, "entities", 0, "motion", "speed"), 10**400)],
     r"motion\.speed"),
    ("carrace", [(("clients", 0, "clock_offset_ms"), 10**30)],
     r"clients\[0\]\.clock_offset_ms"),
    ("carrace", [(("clients", 0, "id"), 2**33),
                 (("links", 0, "endpoints"), [2**33, 1])],
     r"clients\[0\]\.id"),
    ("carrace", [(("clients", 0, "entities", 0, "id"), 2**33)],
     r"entities\[0\]\.id"),
    ("two_client", [(("clients", 0, "entities", 0, "motion", "vel"),
                     [1e308, 0])], r"clients\[0\]\.entities\[0\]\.motion"),
]


@pytest.mark.parametrize(
    "base, edits, named", OUT_OF_RANGE,
    ids=["clients.0.entities.0.motion.points.0=[10**400,0]",
         "clients.0.entities.0.motion.speed=10**400",
         "clients.0.clock_offset_ms=10**30",
         "clients.0.id=2**33",
         "clients.0.entities.0.id=2**33",
         "two_client:clients.0.entities.0.motion.vel=[1e308,0]"])
def test_out_of_range_number_raises_validation_error(scenarios_dir, tmp_path,
                                                     capsys, base, edits,
                                                     named):
    if base == "carrace":
        doc = json.loads((scenarios_dir / "carrace.json").read_text())
    else:
        doc = two_client_doc()
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    with pytest.raises(ValidationError, match=named):
        parse_scenario(doc)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert cli.main(["run", str(scenario)]) == 2
    assert "error:" in capsys.readouterr().err


def test_numbers_at_the_edge_of_range_are_accepted(scenarios_dir):
    doc = json.loads((scenarios_dir / "carrace.json").read_text())
    doc["clients"][0]["id"] = 2**32 - 1
    doc["links"][0]["endpoints"] = [2**32 - 1, 1]
    doc["clients"][1]["entities"][0]["id"] = 2**32 - 1
    doc["clients"][1]["clock_offset_ms"] = 2**64 - 1 - doc["duration_ms"]
    config = parse_scenario(doc)
    assert config.clients[0].client_id == 2**32 - 1


def test_event_series_is_cut_at_the_run_end():
    """Events after duration_ms never fire, so they are not kept, and a
    long series is not expanded past the run's end."""
    doc = minimal_doc()   # duration_ms 1000
    doc["clients"][0]["entities"][0]["events"] = [
        {"kind": "fire", "first": 100, "every": 50, "count": 10**5},
        {"kind": "fire", "first": 1001, "every": 1, "count": 10**5},
        {"kind": "fire", "at": 1000},
        {"kind": "fire", "at": 1001}]
    config = parse_scenario(doc)
    times = [t for t, _ in config.clients[0].entities[0].events]
    assert times == sorted([*range(100, 1001, 50), 1000])


def test_shipped_carrace_scenario(scenarios_dir):
    config = load_scenario(scenarios_dir / "carrace.json")
    assert len(config.clients) == 2
    assert any(isinstance(r, Rect) for r in config.regions)
    rect = next(r for r in config.regions if isinstance(r, Rect))
    assert (rect.min_x, rect.min_y, rect.max_x, rect.max_y) == (90, -10, 100, 10)
    assert len(config.links) == 1
    assert config.links[0].kind is LinkKind.RELAY
    assert config.links[0].base_delay_ms == 250
    # 500 ms local lag: one of the two settings used in the experiments
    assert config.policies.classes["car"].lag_ms == 500


def test_shipped_tankshots_scenario(scenarios_dir):
    config = load_scenario(scenarios_dir / "tankshots.json")
    assert config.toggles.sender_side_lag is True
    fires = [e for c in config.clients for spec in c.entities
             for e in spec.events]
    assert len(fires) >= 200
    assert config.policies.classes["tank"].lag_ms == 500


def test_fire_event_shorthand_expansion():
    doc = minimal_doc()
    doc["clients"][0]["entities"][0]["events"] = [
        {"kind": "fire", "first": 100, "every": 50, "count": 4},
        {"kind": "fire", "at": 75}]
    config = parse_scenario(doc)
    times = [t for t, _ in config.clients[0].entities[0].events]
    assert times == [75, 100, 150, 200, 250]


def test_constant_velocity_closed_form():
    motion = ConstantVelocity((1.0, 2.0), (10.0, -4.0))
    assert motion.state(0)[0] == (1.0, 2.0)
    assert motion.state(500)[0] == (6.0, 0.0)
    assert motion.state(12345)[1] == (10.0, -4.0)


def test_waypoint_path_geometry():
    motion = WaypointPath([(0, 0), (10, 0), (10, 10)], speed=10.0)
    assert motion.state(0)[0] == (0.0, 0.0)
    assert motion.state(500)[0] == (5.0, 0.0)
    assert motion.state(500)[1] == (10.0, 0.0)
    assert motion.state(1000)[0] == (10.0, 0.0)   # corner
    assert motion.state(1000)[1] == (0.0, 10.0)   # outgoing leg
    assert motion.state(1500)[0] == (10.0, 5.0)
    # path exhausted: parked at the last point
    assert motion.state(5000)[0] == (10.0, 10.0)
    assert motion.state(5000)[1] == (0.0, 0.0)


def test_waypoint_loop_wraps():
    motion = WaypointPath([(0, 0), (10, 0), (10, 10), (0, 10)], speed=10.0,
                          loop=True)
    lap_ms = int(40 / 10.0 * 1000)
    assert motion.state(0)[0] == motion.state(lap_ms)[0]
    assert motion.state(500)[0] == motion.state(lap_ms + 500)[0]


def test_motion_state_is_position_and_velocity_from_one_lookup():
    motion = WaypointPath([(0, 0), (10, 0), (10, 10)], speed=10.0)
    lookups = []
    locate = motion._locate
    motion._locate = lambda t: lookups.append(t) or locate(t)
    for t in (0, 500, 1000, 1500, 5000):
        motion.state(t)
    assert lookups == [0, 500, 1000, 1500, 5000]
    cv = ConstantVelocity((1.0, 2.0), (10.0, -4.0))
    assert cv.state(500) == ((6.0, 0.0), (10.0, -4.0))


def scan_locate(motion, t):
    """The segment lookup as a scan of the segments: the reference for
    WaypointPath._locate."""
    s = motion.speed * (t / 1000.0)
    if motion.loop:
        s = math.fmod(s, motion.total)
    elif s >= motion.total:
        return None
    for i, (a, b, length) in enumerate(motion._segments):
        # strict <: a sample exactly on a corner reports the outgoing leg
        if s < motion._cum[i + 1] or i == len(motion._segments) - 1:
            return a, b, length, (s - motion._cum[i]) / length
    return None


_STEP = st.tuples(st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]),
                  st.integers(1, 20))


@st.composite
def paths_and_times(draw):
    """An axis-aligned path with whole-metre legs and a speed at which
    every corner falls on a whole ms, and a time that is often exactly a
    corner's, possibly laps later, or the path's end."""
    points = [(draw(st.integers(-50, 50)), draw(st.integers(-50, 50)))]
    for (dx, dy), length in draw(st.lists(_STEP, min_size=1, max_size=6)):
        x, y = points[-1]
        points.append((x + dx * length, y + dy * length))
    if points[-1] == points[0]:
        points.pop()
    assume(len(points) >= 2)
    motion = WaypointPath(points, speed=draw(st.sampled_from([0.5, 1, 2, 4])),
                          loop=draw(st.booleans()))
    corner = draw(st.sampled_from(motion._cum))
    laps = draw(st.integers(0, 3))
    t = draw(st.one_of(
        st.just(round((corner + laps * motion.total) / motion.speed * 1000)),
        st.integers(-10_000, 1_000_000)))
    return motion, t


@given(paths_and_times())
def test_locate_matches_the_segment_scan(case):
    motion, t = case
    assert motion._locate(t) == scan_locate(motion, t)


def test_waypoint_validation():
    with pytest.raises(ValidationError):
        WaypointPath([(0, 0)], speed=10.0)
    with pytest.raises(ValidationError):
        WaypointPath([(0, 0), (1, 0)], speed=0.0)
    with pytest.raises(ValidationError):
        WaypointPath([(0, 0), (0, 0)], speed=1.0)


def test_scenario_json_round_trip(tmp_path):
    doc = minimal_doc()
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    config = load_scenario(path)
    assert config.duration_ms == 1000
