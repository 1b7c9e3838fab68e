"""No field of the package is left at its default everywhere or unread.

A field with a default that no call sets only looks like an option: every
run takes the default, and a reader looks for the caller that changes it.
Each module under ``src/prevmap`` is parsed; every defaulted field of a
dataclass or a NamedTuple defined there must be passed, by keyword or by
position, in some call of its class under ``src/prevmap``.  A call through
a module-level alias (``_S = _Setting``) counts as a call of the class, and
a call that unpacks ``*args`` or ``**kwargs`` counts as passing every
field.

A field that nothing reads is work and memory for no one, and a reader
looks for its use.  Every field of a dataclass or a NamedTuple defined
under ``src/prevmap`` must be read somewhere in ``src/prevmap`` or
``perfbench``: as an attribute of any object, through ``getattr`` with its
name, or through ``fields()`` of its class (``fields(self)`` in the class's
own methods).  The benchmark counts as a reader because it reads results
the package only writes.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "prevmap")
BENCH = os.path.join(ROOT, "perfbench")


def _modules(folder=PACKAGE):
    return [os.path.join(folder, name) for name in sorted(os.listdir(folder))
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


def _records(tree):
    """The dataclass and NamedTuple definitions of ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and ("dataclass" in map(_name, node.decorator_list)
                 or "NamedTuple" in map(_name, node.bases))]


def _fields(node):
    """The annotated (field) statements of a record class."""
    return [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def _record_classes(tree):
    """class name -> (field names in order, {defaulted field: line})."""
    out = {}
    for node in _records(tree):
        names, defaulted = [], {}
        for stmt in _fields(node):
            if not _init_false(stmt.value):
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


def _reads(tree, record_fields):
    """Names read as an attribute, by ``getattr`` with a constant name, or
    through ``fields()`` of a record class (by its name, or ``self`` in its
    own methods)."""
    out = set()
    owner = {}  # node -> the record class whose body holds it
    for cls in _records(tree):
        for node in ast.walk(cls):
            owner[node] = cls.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        if not (isinstance(node, ast.Call) and node.args):
            continue
        arg = node.args[0] if _name(node) == "fields" else None
        if _name(node) == "getattr" and len(node.args) > 1:
            if isinstance(node.args[1], ast.Constant):
                out.add(node.args[1].value)
        elif isinstance(arg, ast.Name) and arg.id in record_fields:
            out.update(record_fields[arg.id])
        elif isinstance(arg, ast.Name) and arg.id == "self" and node in owner:
            out.update(record_fields[owner[node]])
    return out


def unread_fields(defining, reading):
    """``file: Class.field (line)`` of each field of a record class of the
    files ``defining`` that no file of ``reading`` reads."""
    defined = []  # (file, class, field, line)
    for path in defining:
        for cls in _records(_parse(path)):
            defined.extend((path, cls.name, stmt.target.id, stmt.lineno)
                           for stmt in _fields(cls))
    record_fields = {}
    for _, cls, name, _ in defined:
        record_fields.setdefault(cls, []).append(name)
    read = set()
    for path in reading:
        read |= _reads(_parse(path), record_fields)
    return [f"{os.path.basename(path)}: {cls}.{name} (line {line})"
            for path, cls, name, line in defined if name not in read]


def test_every_field_is_read():
    assert unread_fields(_modules(), _modules() + _modules(BENCH)) == []


def test_finds_a_field_nobody_reads(tmp_path):
    # the check itself: a field read as an attribute, by getattr, through
    # fields(self) in its class or through fields() of its class is read;
    # one only written is caught
    lib = tmp_path / "lib.py"
    lib.write_text(
        "from dataclasses import dataclass, fields\n"
        "from typing import NamedTuple\n\n"
        "@dataclass\nclass Box:\n    a: int\n    b: int\n    c: int\n\n"
        "@dataclass\nclass Pair:\n    p: int\n    q: int\n\n"
        "    def copy(self):\n"
        "        return Pair(*(getattr(self, f.name) for f in fields(self)))\n"
        "\nclass Row(NamedTuple):\n    a: int\n    d: int\n\n"
        "@dataclass\nclass Cell:\n    e: int\n\n"
        "box = Box(0, 1, 2)\nbox.c = 3\nprint(box.a, getattr(box, 'b'))\n"
        "print(fields(Cell))\n")
    assert unread_fields([str(lib)], [str(lib)]) == [
        "lib.py: Box.c (line 8)", "lib.py: Row.d (line 20)"]


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
