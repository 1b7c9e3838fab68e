"""No module calls the garbage collector but the process entry.

``cli.run`` freezes the heap once its command has returned, just before
the process exits.  A ``gc`` call anywhere else would run inside
``cli.main`` or a library function, where tests and in-process callers
would find the collector frozen or switched off.  Each module under
``src/prevmap`` is parsed; every call of a ``gc`` function, reached through
the module (``import gc``, under any name) or imported from it, must lie in
the function ``run`` of ``cli.py``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "prevmap")
ALLOWED = ("cli.py", "run")


def _gc_names(tree):
    """The names the module binds to the ``gc`` module, and to functions
    imported from it."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions |= {a.asname or a.name for a in node.names}
    return modules, functions


def gc_calls(path):
    """(owner, line) of each ``gc`` call in the module at ``path``: the
    owner is the top-level function or class that holds the call, ``-`` at
    module level."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules, functions = _gc_names(tree)
    found = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else "-"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if ((isinstance(func, ast.Attribute)
                 and isinstance(func.value, ast.Name)
                 and func.value.id in modules)
                    or (isinstance(func, ast.Name) and func.id in functions)):
                found.append((owner, node.lineno))
    return found


def test_only_cli_run_calls_the_collector():
    stray = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            calls = [f"{owner} (line {line})" for owner, line
                     in gc_calls(os.path.join(PACKAGE, name))
                     if (name, owner) != ALLOWED]
            if calls:
                stray[name] = calls
    assert stray == {}
    assert [owner for owner, _ in gc_calls(os.path.join(PACKAGE, "cli.py"))
            ] == ["run"]


def test_finds_a_collector_call(tmp_path):
    # the check itself: calls through the module under any name and of an
    # imported function are caught, a method that shares a gc name is not
    src = tmp_path / "module.py"
    src.write_text("import gc as collector\nfrom gc import disable\n"
                   "collector.collect()\n"
                   "def f(obj):\n    disable()\n    obj.freeze()\n"
                   "class C:\n    def g(self):\n"
                   "        collector.freeze()\n")
    assert gc_calls(str(src)) == [("-", 3), ("f", 5), ("C", 9)]
