"""Guard against inert settings: every field of the settings types must be
read as an attribute somewhere in the package outside its own class body,
and every Toggles and run-wide PolicySet field must change some output of
the golden small mesh for a value stated here.

A read counts only where the value is used. Passing `spec.x` straight into
the constructor of another settings type copies the setting, it does not
use it: a flag carried from the scenario into PeerCapabilities and read
nowhere after that is still inert.

Each setting's default and bounds have one home, its settings type: a
document that omits a key parses to the type's default, and a value out of
the type's bounds fails in the type and, naming its path, in the parser.
A region's radius and a waypoint path's speed are held the same way."""

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import two_client_doc
from gamesync.overlay import LinkSpec, PeerCapabilities
from gamesync.player import ClassPolicy, PlayerManagerConfig, PolicySet, Toggles
from gamesync.regions import AnchoredCircle, Circle
from gamesync.runner import run
from gamesync.scenario import (ClientSpec, EntitySpec, ScenarioConfig,
                               ValidationError, WaypointPath, parse_scenario)
from test_golden import GOLDEN, digests, small_mesh_doc

SETTINGS = (PlayerManagerConfig, PolicySet, ClassPolicy, Toggles, ClientSpec,
            EntitySpec, PeerCapabilities, LinkSpec)
SOURCE = Path(__file__).resolve().parent.parent / "src" / "gamesync"


def _reads():
    """(attribute name, enclosing class names) for every attribute load in
    the package that is not an argument to a settings constructor."""
    names = {cls.__name__ for cls in SETTINGS}
    reads = []

    def visit(node, classes, copied):
        if isinstance(node, ast.ClassDef):
            classes = classes | {node.name}
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not copied):
            reads.append((node.attr, classes))
        if isinstance(node, ast.Call):
            func = node.func
            callee = getattr(func, "attr", getattr(func, "id", None))
            visit(func, classes, False)
            for arg in node.args + [kw.value for kw in node.keywords]:
                # a bare `spec.x` argument to a settings type is a copy
                visit(arg, classes,
                      callee in names and isinstance(arg, ast.Attribute))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, classes, False)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset(), False)
    return reads


READS = _reads()


@pytest.mark.parametrize("cls", SETTINGS, ids=lambda cls: cls.__name__)
def test_every_settings_field_is_read(cls):
    inert = [f.name for f in fields(cls)
             if not any(attr == f.name and cls.__name__ not in classes
                        for attr, classes in READS)]
    assert inert == [], f"{cls.__name__} fields read nowhere: {inert}"


# A value for every Toggles field and every run-wide PolicySet field (the
# per-class `default` and `classes` excepted) that changes some output byte
# of the golden small mesh. Reading a field is not enough: a toggle read
# only on a path that changes nothing is inert too.
OUTPUT_CHANGING = {
    "toggles": {
        "overlay": False,
        "sender_side_lag": False,
        "receiver_side_lag": False,
        "critical_tightening": False,
    },
    "policies": {
        "critical_threshold_scale": 1.0,
        "critical_lag_scale": 1.0,
        "heartbeat_ms": 1000,
        "ewma_alpha": 0.5,
        "exit_hysteresis_ms": 0,
        "route_hysteresis_ms": 2000,
        "idle_ping_ms": 1000,
        "critical_proximity_radius_m": 20.0,
    },
}
PER_CLASS = {"default", "classes"}


def test_every_run_wide_setting_has_an_output_changing_value():
    assert set(OUTPUT_CHANGING["toggles"]) == {f.name for f in fields(Toggles)}
    assert set(OUTPUT_CHANGING["policies"]) == (
        {f.name for f in fields(PolicySet)} - PER_CLASS)


@pytest.mark.parametrize("section, key, value", [
    (section, key, value) for section, table in OUTPUT_CHANGING.items()
    for key, value in table.items()], ids=lambda v: str(v))
def test_every_run_wide_setting_changes_some_output(section, key, value,
                                                     tmp_path):
    doc = small_mesh_doc()
    assert doc[section].get(key) != value
    doc[section][key] = value
    assert digests(parse_scenario(doc), tmp_path) != GOLDEN["small_mesh"]


def test_omitted_keys_take_the_settings_types_own_defaults():
    """Every optional key left out: what the parser builds equals what each
    type builds from its required fields alone."""
    doc = {"duration_ms": 1000,
           "clients": [{"id": 0, "entities": [
                           {"id": 0, "motion": {"kind": "waypoints",
                                                "points": [[0, 0], [1, 0]],
                                                "speed": 1}}]},
                       {"id": 1, "entities": []}],
           "links": [{"id": 0, "endpoints": [0, 1], "base_delay_ms": 10}]}
    config = parse_scenario(doc)
    assert config == ScenarioConfig(1000, config.clients, config.links, [],
                                    [], config.policies, config.toggles)
    entity = config.clients[0].entities[0]
    assert entity == EntitySpec(0, entity.motion)
    assert config.links == [LinkSpec(0, (0, 1), 10)]
    assert config.clients[0] == ClientSpec(0, config.clients[0].entities)
    assert config.clients[1] == ClientSpec(1, [])
    assert config.policies == PolicySet()
    assert config.policies.default == ClassPolicy()
    assert config.toggles == Toggles()
    loop = inspect.signature(WaypointPath).parameters["loop"].default
    assert config.clients[0].entities[0].motion.loop is loop
    # Empty objects keep the same defaults, and a class policy's omitted
    # keys take the default class policy's values.
    doc["policies"] = {"default": {"lag_ms": 70}, "classes": {"car": {}}}
    doc["toggles"] = {}
    config = parse_scenario(doc)
    default = ClassPolicy(lag_ms=70)
    assert config.policies == PolicySet(default=default,
                                        classes={"car": default})
    assert config.toggles == Toggles()


def _document_path(where, name):
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                         for key in where) + f".{name}"


def _built(config, where):
    """The settings object that the document sets at where parsed into."""
    for key in where:
        config = (config[key] if isinstance(config, (list, dict))
                  else getattr(config, key))
    return config


def _set(doc, where, name, value):
    target = doc
    for key in where:
        target = (target[key] if isinstance(key, int)
                  else target.setdefault(key, {}))
    target[name] = value


def _bounds_doc():
    """two_client_doc with a circle and an anchored circle region, and
    client 0's entity on a waypoint path: a key to set for every bound."""
    doc = two_client_doc(regions=[
        {"kind": "circle", "center": [0, 0], "radius": 5},
        {"kind": "anchored_circle", "anchor_entity": 1, "radius": 5}])
    doc["clients"][0]["entities"][0]["motion"] = {
        "kind": "waypoints", "points": [[0, 0], [50, 0]], "speed": 10}
    return doc


def _rebuilt(base, name, value):
    """A new instance of base's type from base's own arguments, with name
    set to value: what dataclasses.replace does, for any type that keeps
    each argument as an attribute of the same name (WaypointPath too)."""
    args = {arg: getattr(base, arg)
            for arg in inspect.signature(type(base)).parameters}
    return type(base)(**{**args, name: value})


# (a type's instance, field, value, where the document sets it): one value
# outside each bound a settings type, a region or a waypoint path checks.
POLICIES, DEFAULT = ("policies",), ("policies", "default")
CLASS, LINK = ("policies", "classes", "car"), ("links", 0)
CIRCLE, ANCHORED = ("regions", 0), ("regions", 1)
MOTION = ("clients", 0, "entities", 0, "motion")
PATH = WaypointPath([(0, 0), (50, 0)], 10.0)
OUT_OF_BOUNDS = [
    (ClassPolicy(), "threshold_m", 0, DEFAULT),
    (ClassPolicy(), "threshold_m", -0.5, CLASS),
    (ClassPolicy(), "convergence_ms", -1, DEFAULT),
    (ClassPolicy(), "lag_ms", -1, CLASS),
    (PolicySet(), "critical_threshold_scale", 0, POLICIES),
    (PolicySet(), "critical_threshold_scale", 1.5, POLICIES),
    (PolicySet(), "critical_lag_scale", 0, POLICIES),
    (PolicySet(), "critical_lag_scale", 1.5, POLICIES),
    (PolicySet(), "ewma_alpha", 0, POLICIES),
    (PolicySet(), "ewma_alpha", 1.5, POLICIES),
    (PolicySet(), "heartbeat_ms", 0, POLICIES),
    (PolicySet(), "idle_ping_ms", 0, POLICIES),
    (PolicySet(), "exit_hysteresis_ms", -1, POLICIES),
    (PolicySet(), "route_hysteresis_ms", -1, POLICIES),
    (PolicySet(), "critical_proximity_radius_m", -0.5, POLICIES),
    (LinkSpec(0, (0, 1), 10), "base_delay_ms", -1, LINK),
    (LinkSpec(0, (0, 1), 10), "jitter_ms", -1, LINK),
    (LinkSpec(0, (0, 1), 10), "loss_prob", -0.1, LINK),
    (LinkSpec(0, (0, 1), 10), "loss_prob", 1.5, LINK),
    (Circle((0.0, 0.0), 5.0), "radius", 0, CIRCLE),
    (AnchoredCircle(1, 5.0), "radius", -1, ANCHORED),
    (PATH, "speed", 0, MOTION),
    (PATH, "speed", -0.5, MOTION),
]


@pytest.mark.parametrize(
    "base, name, value, where", OUT_OF_BOUNDS,
    ids=[_document_path(w, n) + f"={v}" for _, n, v, w in OUT_OF_BOUNDS])
def test_out_of_bounds_value_fails_in_the_type_and_in_the_parser(
        base, name, value, where):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        _rebuilt(base, name, value)
    doc = _bounds_doc()
    _set(doc, where, name, value)
    with pytest.raises(ValidationError,
                       match="^" + re.escape(_document_path(where, name))):
        parse_scenario(doc)


POLICY_OUT_OF_BOUNDS = [(name, value) for base, name, value, _ in OUT_OF_BOUNDS
                        if isinstance(base, PolicySet)]


@pytest.mark.parametrize("name, value", POLICY_OUT_OF_BOUNDS,
                         ids=[f"{n}={v}" for n, v in POLICY_OUT_OF_BOUNDS])
def test_a_policy_bound_holds_when_the_field_is_set_later(name, value):
    """Managers read the PolicySet live, so assigning a field after it is
    built is held to the same bound as building it."""
    policies = PolicySet()
    before = getattr(policies, name)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        setattr(policies, name, value)
    assert getattr(policies, name) == before


@pytest.mark.parametrize("name, value", [("heartbeat_ms", 0),
                                         ("critical_lag_scale", 7.0)])
def test_a_parsed_configs_policies_reject_an_out_of_bounds_assignment(
        name, value):
    """A heartbeat of 0 would make the standing client send every tick
    (202 state updates in this run instead of 12): the assignment is
    refused, and the run sends what an untouched config sends."""
    config = parse_scenario(two_client_doc())
    with pytest.raises(ValueError, match=f"^{name} must be"):
        setattr(config.policies, name, value)
    assert run(config).summary["state_sends"] == run(
        parse_scenario(two_client_doc())).summary["state_sends"] == 12


def test_a_link_events_change_is_held_to_the_links_own_bounds():
    doc = two_client_doc(link_events=[{"at": 100, "link": 0,
                                       "base_delay_ms": -1}])
    with pytest.raises(ValidationError, match=re.escape(
            "$.link_events[0].base_delay_ms must be >= 0")):
        parse_scenario(doc)
    doc["link_events"][0].update(base_delay_ms=0, available=False)
    assert parse_scenario(doc).link_events == [
        (100, 0, "available", False), (100, 0, "base_delay_ms", 0)]


# Values at the edge of each bound, accepted by the type and the parser
# alike. The tiny positive ones were rejected by a parser bound of 1e-9
# that the types never had.
AT_BOUNDS = [
    (ClassPolicy(), "threshold_m", 1e-12, DEFAULT),
    (ClassPolicy(), "convergence_ms", 0, CLASS),
    (ClassPolicy(), "lag_ms", 0, CLASS),
    (PolicySet(), "critical_threshold_scale", 1e-12, POLICIES),
    (PolicySet(), "critical_lag_scale", 1e-12, POLICIES),
    (PolicySet(), "ewma_alpha", 1e-12, POLICIES),
    (PolicySet(), "ewma_alpha", 1.0, POLICIES),
    (PolicySet(), "heartbeat_ms", 1, POLICIES),
    (PolicySet(), "idle_ping_ms", 1, POLICIES),
    (PolicySet(), "exit_hysteresis_ms", 0, POLICIES),
    (PolicySet(), "route_hysteresis_ms", 0, POLICIES),
    (PolicySet(), "critical_proximity_radius_m", 0.0, POLICIES),
    (LinkSpec(0, (0, 1), 10), "base_delay_ms", 0, LINK),
    (LinkSpec(0, (0, 1), 10), "loss_prob", 1.0, LINK),
    (Circle((0.0, 0.0), 5.0), "radius", 1e-12, CIRCLE),
    (AnchoredCircle(1, 5.0), "radius", 1e-12, ANCHORED),
    (PATH, "speed", 1e-12, MOTION),
]


@pytest.mark.parametrize(
    "base, name, value, where", AT_BOUNDS,
    ids=[_document_path(w, n) + f"={v}" for _, n, v, w in AT_BOUNDS])
def test_value_at_a_bound_is_accepted_by_the_type_and_the_parser(
        base, name, value, where):
    assert getattr(_rebuilt(base, name, value), name) == value
    doc = _bounds_doc()
    _set(doc, where, name, value)
    assert getattr(_built(parse_scenario(doc), where), name) == value


# Where a document sets each settings type's fields; the ids' key is "id".
SETTINGS_AT = [(ClassPolicy, DEFAULT), (ClassPolicy, CLASS),
               (PolicySet, POLICIES), (Toggles, ("toggles",)),
               (LinkSpec, LINK), (ClientSpec, ("clients", 0))]
SCALARS = [(where, f) for cls, where in SETTINGS_AT for f in fields(cls)
           if f.type in (bool, int, float, float | None)
           and f.name not in ("link_id", "client_id")]


@pytest.mark.parametrize("where, f", SCALARS,
                         ids=[_document_path(w, f.name) for w, f in SCALARS])
def test_a_fields_json_type_comes_from_its_annotation(where, f):
    """A bool field takes only a boolean, an int field only an integer, a
    float field any number (kept as a float), and null is taken only where
    the field's default is None."""
    wrong = ["1", [1]] + ([] if f.default is None else [None])
    wrong += {bool: [1], int: [True, 1.5]}.get(f.type, [True])
    for value in wrong:
        doc = two_client_doc()
        _set(doc, where, f.name, value)
        named = "^" + re.escape(_document_path(where, f.name))
        with pytest.raises(ValidationError, match=named):
            parse_scenario(doc)
    right = {bool: [True], int: [1]}.get(f.type, [1, 0.5])
    right += [None] if f.default is None else []
    for value in right:
        doc = two_client_doc()
        _set(doc, where, f.name, value)
        got = getattr(_built(parse_scenario(doc), where), f.name)
        assert got == value
        assert type(got) is (f.type if f.type in (bool, int) else type(None)
                             if value is None else float)
