"""Guard against inert settings: every field of the settings types must be
read as an attribute somewhere in the package outside its own class body,
and every Toggles and run-wide PolicySet field must change some output of
the golden small mesh for a value stated here.

A read counts only where the value is used. Passing `spec.x` straight into
the constructor of another settings type copies the setting, it does not
use it: a flag carried from the scenario into PeerCapabilities and read
nowhere after that is still inert."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from gamesync.overlay import LinkSpec, PeerCapabilities
from gamesync.player import ClassPolicy, PlayerManagerConfig, PolicySet, Toggles
from gamesync.scenario import ClientSpec, EntitySpec, parse_scenario
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
