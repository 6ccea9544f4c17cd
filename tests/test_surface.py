"""Guard against dead names in the package.

Every top-level public function or class in ``src/shq`` must be referenced
somewhere outside its own definition.  A reference is a ``Name``, an
``Attribute`` or an imported name in ``src/shq`` or in the acceptance
contract ``tests/test_acceptance.py``; a ``"module.function"`` string in
``perfbench/tracing.py``, which wraps functions by name; or a console
script entry ``"shq.module:function"`` in ``pyproject.toml``.  Tests other
than the acceptance contract do not count: a name only they reach is
library surface that no run of the product uses.

Every top-level private function or class must be referenced from
``src/shq`` itself, so a helper left behind when its callers go fails.

And every name ``perfbench/tracing.py`` wraps must exist: the tracer
installs in a fresh interpreter.

Only ``Record.__init__`` binds the fields of a value type: no other class
sets a name of its own ``_fields`` with ``object.__setattr__``.  And only
``Record`` and its subclasses define equality, hash, or refuse to set or
delete an attribute: there is one value mechanism.

No module imports a name it never reads; a name listed in ``__all__``
is not a read, so the package re-exports nothing.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

from shq.novikov import Record

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shq"
CONTRACT = ROOT / "tests" / "test_acceptance.py"
TRACING = ROOT / "perfbench" / "tracing.py"
PYPROJECT = ROOT / "pyproject.toml"


def definitions(sources: dict, private: bool = False) -> set:
    """(module, name) of every top-level public function or class, or
    with private of every private one."""
    return {
        (module, node.name)
        for module, tree in sources.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    }


def _names_in(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]


def referenced_names(sources: dict, extra_trees=()) -> set:
    """Every name used in the package outside the top-level definition
    of that same name (so recursion is not a use), and every name used
    in extra_trees."""
    found = set()
    for tree in sources.values():
        for node in tree.body:
            own = getattr(node, "name", None)
            found.update(name for name in _names_in(node) if name != own)
    for tree in extra_trees:
        found.update(_names_in(tree))
    return found


def dead_names(sources: dict, extra_trees=(), strings=()) -> list:
    """Public definitions with no reference; strings holds the
    (module, name) pairs named outside any Python code."""
    names = referenced_names(sources, extra_trees)
    return sorted(
        name
        for (module, name) in definitions(sources)
        if name not in names and (module, name) not in strings
    )


def tracing_targets() -> set:
    """("module", "name[.method]") for each "module.name[.method]" string."""
    out = set()
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, *rest = node.value.split(".")
            if rest and all(p.isidentifier() for p in [module, *rest]):
                out.add((module, ".".join(rest)))
    return out


def _script_entries() -> set:
    """("module", "function") for each "shq.module:function" entry."""
    return set(re.findall(r'"shq\.(\w+):(\w+)"', PYPROJECT.read_text()))


def _package_sources() -> dict:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_every_public_name_is_reached():
    sources = _package_sources()
    assert ("pipeline", "compute_sh") in definitions(sources)
    dead = dead_names(
        sources,
        extra_trees=[ast.parse(CONTRACT.read_text())],
        strings={(m, q.split(".")[0]) for m, q in tracing_targets()} | _script_entries(),
    )
    assert not dead, (
        "public names in src/shq with no caller in the package, the "
        f"acceptance contract, perfbench/tracing.py or a script entry: {dead}"
    )


def dead_private_names(sources: dict) -> list:
    """Private definitions that no code in the package references."""
    names = referenced_names(sources)
    return sorted(
        name for (_, name) in definitions(sources, private=True) if name not in names
    )


def test_every_private_name_is_used_in_the_package():
    sources = _package_sources()
    assert ("linalg", "_solve") in definitions(sources, private=True)
    dead = dead_private_names(sources)
    assert not dead, f"private names in src/shq that nothing in src/shq uses: {dead}"


def test_the_scan_sees_each_kind_of_reference():
    sources = {
        "a": ast.parse(
            "def used(): return helper()\n"
            "def helper(): pass\n"
            "def recursive(k): return recursive(k - 1)\n"
            "def traced(): pass\n"
            "def entry(): pass\n"
            "class Called: pass\n"
            "def _private(): pass\n"
        ),
        "b": ast.parse("from .a import used\nimport x\nx.Called()\n"),
    }
    assert dead_names(sources) == ["entry", "recursive", "traced"]
    assert dead_names(sources, strings={("a", "traced"), ("a", "entry")}) == [
        "recursive"
    ]
    contract = ast.parse("from shq.a import recursive")
    assert dead_names(sources, [contract], {("a", "traced"), ("a", "entry")}) == []
    assert dead_private_names(sources) == ["_private"]
    sources["b"] = ast.parse("from .a import _private\n")
    assert dead_private_names(sources) == []


def test_the_tracer_installs():
    # install() rebinds package functions in place, so it runs in a
    # subprocess; a missing name it wraps raises AttributeError there
    code = "import shq.cli, tracing; tracing.Tracer().install()"
    path = os.pathsep.join([str(ROOT / "src"), str(TRACING.parent)])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def private_imports(sources: dict) -> list:
    """(module, name) for each private name a module imports from
    another module of the package."""
    return sorted(
        (module, alias.name)
        for module, tree in sources.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "shq")
        for alias in node.names
        if alias.name.startswith("_")
    )


def unread_imports(tree: ast.Module) -> list:
    """Names bound by a top-level import that the module never reads;
    __future__ imports are exempt.  A name listed in __all__ is not read,
    so a re-export counts as unread."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(bound) - read)


def test_no_module_imports_a_private_name_of_another():
    found = private_imports(_package_sources())
    assert not found, f"private names imported across src/shq modules: {found}"


def test_every_import_is_read():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unread = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if (names := unread_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert not unread, f"imported names that their module never reads: {unread}"


def test_the_import_scans_see_each_kind_of_import():
    sources = {
        "a": ast.parse("from .b import _helper, public\nfrom shq.c import _other\n"),
        "b": ast.parse("from ._c import public\nfrom os import _exit\nimport shq\n"),
    }
    assert private_imports(sources) == [("a", "_helper"), ("a", "_other")]
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from a import used, unused, exported, shadowed as alias\n"
        "__all__ = ['exported']\n"
        "def f(x: used) -> None:\n"
        "    os.path.join(x)\n"
        "    alias = 1\n"
        "    def g():\n"
        "        import json\n"
        "        return json\n"
    )
    assert unread_imports(tree) == ["alias", "exported", "js", "unused"]


def _class_fields(cls: ast.ClassDef) -> tuple:
    """_fields of a Record subclass, from the class-level assignments to
    __slots__ and _fields in order (_fields defaults to __slots__)."""
    scope = {}
    for node in cls.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("__slots__", "_fields"):
                expr = ast.Expression(node.value)
                scope[name] = eval(compile(expr, "<class body>", "eval"), {}, scope)
    return scope.get("_fields", scope.get("__slots__", ()))


def field_setters(sources: dict) -> list:
    """(module, class, name) for each object.__setattr__ call in a class
    other than Record that sets one of the class's own fields; a name
    that is not a string literal counts as a field."""
    found = []
    for module, tree in sources.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name == "Record":
                continue
            fields = _class_fields(cls)
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__"
                    and getattr(node.func.value, "id", None) == "object"
                    and len(node.args) > 1
                ):
                    arg = node.args[1]
                    name = arg.value if isinstance(arg, ast.Constant) else ast.unparse(arg)
                    if name in fields or not isinstance(arg, ast.Constant):
                        found.append((module, cls.name, name))
    return sorted(found)


def test_only_record_binds_the_fields():
    found = field_setters(_package_sources())
    assert not found, f"fields bound outside Record.__init__: {found}"


def test_the_field_setter_scan_sees_each_kind_of_binding():
    tree = ast.parse(
        "class Record:\n"
        "    def __init__(self, *args):\n"
        "        for name, value in zip(self._fields, args):\n"
        "            object.__setattr__(self, name, value)\n"
        "class Plain(Record):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        Record.__init__(self, a, b)\n"
        "class Derived(Record):\n"
        "    __slots__ = ('a', '_cache')\n"
        "    _fields = __slots__[:-1]\n"
        "    def __init__(self, a):\n"
        "        Record.__init__(self, a)\n"
        "        object.__setattr__(self, '_cache', a)\n"
        "class Dynamic(Record):\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        for f in self.__slots__:\n"
        "            object.__setattr__(self, f, a)\n"
    )
    assert field_setters({"m": tree}) == [("m", "Dynamic", "f"), ("m", "Plain", "a")]


VALUE_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def values_outside_record(modules) -> list:
    """Names of the classes defined in modules that define one of
    VALUE_METHODS and are neither Record nor a subclass of it."""
    return sorted(
        cls.__name__
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and VALUE_METHODS & cls.__dict__.keys()
        and not issubclass(cls, Record)
    )


def test_only_records_define_value_semantics():
    modules = [importlib.import_module(f"shq.{path.stem}") for path in PACKAGE.glob("*.py")]
    found = values_outside_record(modules)
    assert not found, f"value semantics outside Record: {found}"


def test_the_value_scan_sees_a_hand_written_value():
    module = types.ModuleType("m")
    exec(
        "from shq.novikov import Record\n"
        "class Plain:\n"
        "    def __hash__(self): return 0\n"
        "class Frozen:\n"
        "    def __setattr__(self, name, value): raise AttributeError(name)\n"
        "class Value(Record):\n"
        "    __slots__ = ('a',)\n"
        "    def __eq__(self, other): return True\n"
        "class Bare:\n"
        "    pass\n",
        module.__dict__,
    )
    assert values_outside_record([module]) == ["Frozen", "Plain"]
