"""No defaulted field of the package is left at its default everywhere.

A field with a default that no call sets only looks like an option: every
run takes the default, and a reader looks for the caller that changes it.
Each module under ``src/prevmap`` is parsed; every defaulted field of a
dataclass or a NamedTuple defined there must be passed, by keyword or by
position, in some call of its class under ``src/prevmap``.  A call through
a module-level alias (``_S = _Setting``) counts as a call of the class, and
a call that unpacks ``*args`` or ``**kwargs`` counts as passing every
field.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "prevmap")


def _modules():
    return [os.path.join(PACKAGE, name) for name in sorted(os.listdir(PACKAGE))
            if name.endswith(".py")]


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _name(node):
    """The last name of ``node``: ``dataclass`` of ``dataclasses.dataclass``
    and of ``dataclass(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _init_false(value):
    # field(init=False) cannot be passed to the constructor
    return (isinstance(value, ast.Call) and _name(value) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _record_classes(tree):
    """class name -> (field names in order, {defaulted field: line})."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not ("dataclass" in map(_name, node.decorator_list)
                or "NamedTuple" in map(_name, node.bases)):
            continue
        names, defaulted = [], {}
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not _init_false(stmt.value)):
                names.append(stmt.target.id)
                if stmt.value is not None:
                    defaulted[stmt.target.id] = stmt.lineno
        out[node.name] = (names, defaulted)
    return out


def _aliases(tree, classes):
    """Module-level ``alias = Class`` names of the given classes."""
    return {node.targets[0].id: node.value.id for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Name)
            and node.value.id in classes}


def unset_defaults(paths):
    """``file: Class.field (line)`` of each defaulted field of the files
    ``paths`` that no call in them passes."""
    trees = {path: _parse(path) for path in paths}
    classes = {}  # class name -> (file, field names, defaulted)
    for path, tree in trees.items():
        for cls, (names, defaulted) in _record_classes(tree).items():
            classes[cls] = (path, names, defaulted)
    passed = {cls: set() for cls in classes}
    for tree in trees.values():
        alias = _aliases(tree, classes)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            cls = alias.get(_name(node), _name(node))
            if cls not in classes:
                continue
            names = classes[cls][1]
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed[cls].update(names)
                continue
            passed[cls].update(names[:len(node.args)])
            passed[cls].update(k.arg for k in node.keywords)
    return [f"{os.path.basename(path)}: {cls}.{name} (line {line})"
            for cls, (path, _, defaulted) in classes.items()
            for name, line in defaulted.items() if name not in passed[cls]]


def test_every_defaulted_field_is_passed():
    assert unset_defaults(_modules()) == []


def test_finds_a_default_nobody_sets(tmp_path):
    # the check itself: a default passed by keyword, by position, through
    # an alias or by unpacking is set; one no call passes is caught
    lib = tmp_path / "lib.py"
    lib.write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import NamedTuple\n\n"
        "@dataclass\nclass Box:\n    a: int\n    b: int = 1\n"
        "    c: int = 2\n    d: list = field(default_factory=list)\n"
        "    e: int = field(init=False, default=0)\n\n"
        "class Row(NamedTuple):\n    a: int\n    b: int = 0\n"
        "    c: int = 0\n\n"
        "@dataclass(frozen=True)\nclass Unpacked:\n    a: int = 0\n\n"
        "_R = Row\n"
        "Box(0, 1)\nBox(a=0, d=[])\n_R(0, c=1)\nUnpacked(**{})\n")
    assert unset_defaults([str(lib)]) == [
        "lib.py: Box.c (line 8)", "lib.py: Row.b (line 14)"]
