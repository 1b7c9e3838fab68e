"""No module imports a name it never uses.

An import that nothing reads makes a reader look for a use that is not
there, and keeps a deleted helper's name alive.  Each module under
``src/prevmap`` and ``tests`` is parsed; every name an import binds must
occur again as a name in the module, or as a string in its ``__all__``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGES = ("src/prevmap", "tests")


def _modules():
    for package in PACKAGES:
        folder = os.path.join(ROOT, package)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                yield f"{package}/{name}"


def _imported(tree):
    """(bound name, line) of every import in the module but ``*`` and
    ``__future__`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _referenced(tree):
    """Every name the module reads, and the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(elt.value for elt in ast.walk(node.value)
                         if isinstance(elt, ast.Constant)
                         and isinstance(elt.value, str))
    return names


def dead_imports(path):
    """``name (line)`` of each imported name the module never uses."""
    with open(os.path.join(ROOT, path)) as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = _referenced(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree)
            if name not in used]


def test_every_module_uses_every_name_it_imports():
    found = {path: dead_imports(path) for path in _modules()}
    assert {path: names for path, names in found.items() if names} == {}


def test_finds_an_unused_import(tmp_path):
    # the check itself: an unused import is caught, a used one and an
    # ``__all__`` export are not
    src = tmp_path / "module.py"
    src.write_text("import os\nimport numpy as np\nfrom sys import path\n"
                   "from json import dumps\n__all__ = ['dumps']\n"
                   "x = np.zeros(1)\n")
    assert dead_imports(str(src)) == ["os (line 1)", "path (line 3)"]
