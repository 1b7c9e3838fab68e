"""No defaulted parameter of private code is left at its default everywhere.

A private function whose default no call overrides only looks like it has
an option: every run takes the default, and a reader looks for the caller
that changes it (a test that needs another value can patch a module
constant instead).  Each module under ``src/prevmap`` is parsed; every
defaulted parameter of a function, or of a method of a class, whose name is
not in its module's ``__all__`` must be passed, by keyword or by position,
in some call of that name under ``src/prevmap``.  A call of a class counts
as a call of its ``__init__``; a call that unpacks ``*args`` or
``**kwargs`` counts as passing every parameter.  Calls are matched by name
alone, so a call of any function of the same name counts.
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
    """The last name of ``node``: ``f`` of ``f`` and of ``obj.f``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _exported(tree):
    """The names in the module's ``__all__`` when it is a literal list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(_name(t) == "__all__" for t in node.targets)
                and isinstance(node.value, ast.List)):
            return {elt.value for elt in node.value.elts}
    return set()


def _private_functions(tree):
    """(call name, function, bound) of each function, or method of a
    class, not named in ``__all__``: ``bound`` when a call passes its first
    parameter implicitly, and a class's ``__init__`` under the class's
    name."""
    exported = _exported(tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name not in exported:
            yield node.name, node, False
        if isinstance(node, ast.ClassDef) and node.name not in exported:
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                bound = "staticmethod" not in map(_name, fn.decorator_list)
                yield (node.name if fn.name == "__init__" else fn.name,
                       fn, bound)


def _defaulted(fn, bound):
    """Names of the defaulted parameters of ``fn`` in positional order,
    with the positional parameters a call can pass by position."""
    args = fn.args.posonlyargs + fn.args.args
    positional = [a.arg for a in args][1 if bound else 0:]
    defaulted = [a.arg for a in args[len(args) - len(fn.args.defaults):]]
    defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs,
                                        fn.args.kw_defaults) if d is not None]
    return positional, defaulted


def unset_defaults(paths):
    """``file: function.parameter (line)`` of each defaulted parameter of
    private code in the files ``paths`` that no call in them passes."""
    trees = {path: _parse(path) for path in paths}
    functions = {}  # call name -> [(file, function, positional, defaulted)]
    for path, tree in trees.items():
        for name, fn, bound in _private_functions(tree):
            functions.setdefault(name, []).append(
                (path, fn, *_defaulted(fn, bound)))
    passed = {name: set() for name in functions}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _name(node.func) if isinstance(node, ast.Call) else None
            if name not in functions:
                continue
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            for _, _, positional, defaulted in functions[name]:
                if unpacks:
                    passed[name].update(defaulted)
                passed[name].update(positional[:len(node.args)])
                passed[name].update(k.arg for k in node.keywords)
    return [f"{os.path.basename(path)}: {fn.name}.{arg} (line {fn.lineno})"
            for name, defs in functions.items()
            for path, fn, _, defaulted in defs
            for arg in defaulted if arg not in passed[name]]


def test_every_private_default_is_passed():
    assert unset_defaults(_modules()) == []


def test_finds_a_private_default_nobody_sets(tmp_path):
    # the check itself: a default passed by keyword, by position, through a
    # class call or by unpacking is set; one no call passes is caught, and
    # an exported function's default is an option of the package
    lib = tmp_path / "lib.py"
    lib.write_text(
        "__all__ = ['public']\n\n"
        "def public(a, b=1):\n    pass\n\n"
        "def _helper(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "def _unpacked(a=0):\n    pass\n\n"
        "class _Box:\n"
        "    def __init__(self, a, b=0, c=0):\n        pass\n\n"
        "    def method(self, a=0, b=0):\n        pass\n\n"
        "    @staticmethod\n    def plain(a=0):\n        pass\n\n"
        "_helper(0, 1, d=1)\n_unpacked(**{})\n_Box(0, 1)\n"
        "_Box(0).method(1)\n_Box.plain(1)\n")
    assert unset_defaults([str(lib)]) == [
        "lib.py: _helper.c (line 6)", "lib.py: _helper.e (line 6)",
        "lib.py: __init__.c (line 13)", "lib.py: method.b (line 16)"]
