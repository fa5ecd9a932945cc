"""Guard against inert settings: every field of the settings types must be
read as an attribute somewhere in the package outside its own class body.

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
from gamesync.scenario import ClientSpec, EntitySpec

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
