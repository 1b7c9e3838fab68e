"""No private function, class or method of the package is left unread.

A helper that nothing calls keeps code alive that no run reaches, and
makes a reader look for a caller that is not there.  Each module under
``src/prevmap`` and ``perfbench`` is parsed; every single-underscore
function, class or method defined under ``src/prevmap`` must be read as a
name or an attribute, or imported, in one of them.  ``perfbench`` counts as
a reader because the benchmark reads private names that the package does
not (``SparseCholesky._lu``).
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFINING = "src/prevmap"
READING = ("src/prevmap", "perfbench")


def _modules(package):
    folder = os.path.join(ROOT, package)
    return [os.path.join(folder, name) for name in sorted(os.listdir(folder))
            if name.endswith(".py")]


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _defined(tree):
    """(name, line) of every private function, class or method."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")):
            yield node.name, node.lineno


def _read(tree):
    """Every name the module reads as a name or an attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def unread_definitions(defining, reading):
    """``file: name (line)`` of each private definition in the files
    ``defining`` that none of the files ``reading`` reads."""
    read = set().union(*(_read(_parse(path)) for path in reading))
    return [f"{os.path.basename(path)}: {name} (line {line})"
            for path in defining
            for name, line in _defined(_parse(path)) if name not in read]


def test_every_private_definition_is_read():
    reading = [path for package in READING for path in _modules(package)]
    assert unread_definitions(_modules(DEFINING), reading) == []


def test_finds_an_unread_helper(tmp_path):
    # the check itself: a helper read only by its own definition's name is
    # caught; one read as a name, an attribute or an import elsewhere is not
    lib = tmp_path / "lib.py"
    lib.write_text("def _called():\n    pass\n\n"
                   "def _left_behind():\n    pass\n\n"
                   "class _Box:\n    def _method(self):\n        pass\n\n"
                   "    def __init__(self):\n        pass\n\n"
                   "def _imported():\n    pass\n\n"
                   "_called()\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import _imported\n_Box()._method()\n")
    assert unread_definitions([str(lib)], [str(lib), str(user)]) == [
        "lib.py: _left_behind (line 4)"]
