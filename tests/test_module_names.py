"""Every global name a library module reads must be bound in that module,
and every name it imports must be read.

A name that is read as a global but never bound at module level (by an
import, an assignment, a ``def`` or a ``class``) and is not a builtin only
fails with ``NameError`` when the line that reads it runs.  This scan finds
such names statically with the standard-library ``symtable``, so a missing
import fails here rather than on the first call down a rarely taken path.
An import that nothing reads is dead code left behind by a deletion; the
second scan finds those.  A function or method that no file of the project
names outside its own definition is dead code too; the third scan finds
those.  A parameter that its function's body never reads is an argument every
caller computes for nothing; the fourth scan finds those.  A parameter with
a default that no call in the program passes only ever takes that one value,
so it is a constant dressed up as a knob; the fifth scan finds those.  A
Cayley table is read by its owner alone: the constructor that fills it,
``FiniteGroup``'s construction checks and ``FiniteGroup.mul``, through which
every other product goes, so the table's layout is known in one place; the
sixth scan finds a read of an attribute named ``table`` anywhere else.  The
same scan finds any read of an attribute named ``inv``: every inverse is read
through ``inverse``, so no array of inverses is kept beside it.  A
module-level name that a module assigns and no file of the project reads is a
constant left behind by a deletion, or a setting nothing consults; the
seventh scan finds those.
"""

from __future__ import annotations

import ast
import builtins
import re
import symtable
from collections import Counter
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_DIR / "src" / "subgroup_atlas"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
# every file that may name a function of the package
PROJECT_FILES = sorted(
    path for top in ("src", "tests", "perfbench") for path in (REPO_DIR / top).rglob("*.py")
)
# every file whose calls count as passing a parameter: tests do not
CALLER_FILES = [path for path in PROJECT_FILES if path.parts[len(REPO_DIR.parts)] != "tests"]

# Attributes the import system sets on every module.
MODULE_ATTRIBUTES = {
    "__name__", "__file__", "__doc__", "__spec__", "__package__",
    "__loader__", "__path__", "__builtins__", "__cached__",
}


def _scopes(table: symtable.SymbolTable):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def unbound_globals(source: str, filename: str) -> list[tuple[str, str]]:
    """(scope, name) for each global read that no module-level binding covers."""
    top = symtable.symtable(source, filename, "exec")
    bound = {
        sym.get_name()
        for sym in top.get_symbols()
        if sym.is_assigned() or sym.is_imported() or sym.is_namespace()
    }
    known = bound | set(dir(builtins)) | MODULE_ATTRIBUTES
    missing = set()
    for scope in _scopes(top):
        for sym in scope.get_symbols():
            name = sym.get_name()
            if sym.is_referenced() and sym.is_global() and name not in known:
                missing.add((scope.get_name(), name))
    return sorted(missing)


def unread_imports(source: str) -> list[str]:
    """Names bound by an import, other than ``from __future__``, that the
    module never reads.

    This walks the syntax tree rather than the symbol table because, under
    ``from __future__ import annotations``, the symbol table leaves out
    names read only in annotations.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


DOTTED_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree: ast.AST) -> Counter:
    """Each identifier a syntax tree names, with its count: names,
    attributes, imported names and the parts of string constants that are
    whole dotted identifiers (the per-layer tracer names its targets as
    strings such as "Homomorphism._verify").  Words in prose name nothing."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_IDENTIFIER.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def unnamed_functions(package: dict[str, str], others: list[str]) -> list[tuple[str, str]]:
    """(module, name) for each function or method of the package sources that
    no source names outside its own definition; dunder methods are exempt."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    named: Counter = Counter()
    for tree in [*trees.values(), *(ast.parse(source) for source in others)]:
        named.update(_names(tree))
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if named[node.name] - _names(node)[node.name] <= 0:
                out.append((module, node.name))
    return sorted(out)


def _reads(tree: ast.AST) -> Counter:
    """The identifiers `_names` counts, less each name or attribute that is
    bound or deleted there rather than read."""
    written = Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Load)
    )
    return _names(tree) - written


def unread_constants(package: dict[str, str], others: list[str]) -> list[tuple[str, str]]:
    """(module, name) for each name that a statement at the top level of a
    package source assigns and that no source reads; dunder names are exempt."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read: Counter = Counter()
    for tree in [*trees.values(), *(ast.parse(source) for source in others)]:
        read.update(_reads(tree))
    out = set()
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
            out |= {
                (module, name.id)
                for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name) and not read[name.id]
                and not (name.id.startswith("__") and name.id.endswith("__"))
            }
    return sorted(out)


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter of a function or lambda that
    its body never reads; ``self`` and ``cls`` are exempt.  A nested function
    that reads a parameter of its enclosing function counts as a read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out.extend(
            (name, param) for param in params
            if param not in read and param not in ("self", "cls")
        )
    return sorted(out)


def test_scan_covers_the_package():
    names = {path.stem for path in MODULES}
    assert {"groups", "towers", "lattice", "filtration", "cli"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbound_global_names(path):
    assert unbound_globals(path.read_text(), str(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text()) == []


def test_scan_flags_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .groups import generate_from, cyclic as make\n"
        "def f(x: Optional[int]):\n"
        "    return make(os.sep)\n"
    )
    assert unread_imports(source) == ["Sequence", "generate_from"]


def test_scan_flags_a_missing_import():
    source = (
        "from math import sqrt\n"
        "def f(x):\n"
        "    return from_elements(sqrt(x))\n"
    )
    assert unbound_globals(source, "<case>") == [("f", "from_elements")]


def test_scan_accepts_every_kind_of_binding():
    source = (
        "import os\n"
        "from math import sqrt as root\n"
        "LIMIT = 3\n"
        "def g():\n"
        "    return LIMIT\n"
        "class K:\n"
        "    size = len(__name__)\n"
        "    def m(self):\n"
        "        return K, g, os.sep, root(4), [y for y in range(LIMIT)]\n"
    )
    assert unbound_globals(source, "<case>") == []


def test_every_function_is_named_outside_its_definition():
    package = {path.name: path.read_text() for path in MODULES}
    others = [path.read_text() for path in PROJECT_FILES if path.parent != PACKAGE_DIR]
    assert unnamed_functions(package, others) == []


def test_scan_flags_an_unnamed_function():
    package = {
        "m.py": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    \"recursive names itself only in its own definition\"\n"
            "    return recursive(n - 1) if n else used()\n"
            "class K:\n"
            "    def __repr__(self):\n"
            "        return ''\n"
            "    def traced(self):\n"
            "        return 0\n"
            "    def dead(self):\n"
            "        return self.dead\n"
            "    def prose(self):\n"
            "        return 1\n"
        ),
    }
    others = ["TARGETS = ('K.traced',)\n", "raise ValueError('no prose for that')\n"]
    assert unnamed_functions(package, others) == [
        ("m.py", "dead"), ("m.py", "prose"), ("m.py", "recursive"),
    ]


def test_every_module_constant_is_read():
    package = {path.name: path.read_text() for path in MODULES}
    others = [path.read_text() for path in PROJECT_FILES if path.parent != PACKAGE_DIR]
    assert unread_constants(package, others) == []


def test_scan_flags_an_unread_constant():
    package = {
        "m.py": (
            "__all__ = ['EXPORTED']\n"
            "LIMIT, SPARE = 3, 4\n"
            "EXPORTED = 1\n"
            "STALE: int = 2\n"
            "STALE += 1\n"
            "def f(x):\n"
            "    return LIMIT + x\n"
        ),
        "n.py": "SIZE = 8\nVERSION = 1\n",
    }
    others = ["import m, n\nm.n.SIZE\nn.VERSION = 2\n"]
    assert unread_constants(package, others) == [
        ("m.py", "SPARE"), ("m.py", "STALE"), ("n.py", "VERSION"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_scan_flags_an_unread_parameter():
    source = (
        "def f(a, b, *rest, c=1, **opts):\n"
        "    def inner(x):\n"
        "        return a + x\n"
        "    return inner(c), opts\n"
        "class K:\n"
        "    def m(self, unused):\n"
        "        return 0\n"
        "    @classmethod\n"
        "    def build(cls, n=len(\"default values are not the body\")):\n"
        "        return cls\n"
        "key = lambda j, _: j\n"
    )
    assert unread_parameters(source) == [
        ("<lambda>", "_"), ("build", "n"), ("f", "b"), ("f", "rest"), ("m", "unused"),
    ]


# The functions that may read an attribute named table, by qualified name.
TABLE_OWNERS = {
    "table_from_rows",
    "FiniteGroup.__init__",
    "FiniteGroup._find_identity",
    "FiniteGroup._check_group",
    "FiniteGroup.mul",
}


def attribute_reads(source: str, attribute: str, owners: set[str]) -> list[tuple[str, int]]:
    """(qualified name of the innermost enclosing function or class, line)
    for each read of an attribute named `attribute` outside the functions
    `owners`; a read outside every function and class is named ``<module>``."""
    out = []

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attribute
                    and isinstance(child.ctx, ast.Load) and scope not in owners):
                out.append((scope or "<module>", child.lineno))
            walk(child, scope)

    walk(ast.parse(source), "")
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_owner_reads_the_table(path):
    assert attribute_reads(path.read_text(), "table", TABLE_OWNERS) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_an_inverse_array(path):
    assert attribute_reads(path.read_text(), "inv", set()) == []


def test_scan_flags_a_table_read_outside_its_owner():
    source = (
        "class FiniteGroup:\n"
        "    def __init__(self, table):\n"
        "        self.table = table\n"
        "    def mul(self, a, b):\n"
        "        return self.table[a, b]\n"
        "    def is_abelian(self):\n"
        "        return self.table.T\n"
        "def table_from_rows(G):\n"
        "    return G.table\n"
        "def closure(G):\n"
        "    t = G.table\n"
        "    def mul(a, b):\n"
        "        return G.table[a, b]\n"
        "    return t, mul\n"
        "SIZE = FiniteGroup([]).table.size\n"
    )
    assert attribute_reads(source, "table", TABLE_OWNERS) == [
        ("<module>", 15), ("FiniteGroup.is_abelian", 7), ("closure", 11), ("closure.mul", 13),
    ]
    assert attribute_reads("def conjugate(G, g):\n    return G.inv[g]\n", "inv", set()) == [
        ("conjugate", 2),
    ]


def _called_name(call: ast.Call) -> str | None:
    """The name a call is matched by: a plain name or the last attribute."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether a call passes a parameter: by keyword, by position (None for
    a keyword-only one), or through ``*args`` or ``**kwargs``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_defaults(package: dict[str, str], callers: list[str]) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each parameter with a default, of a
    function or method of the package sources, that no call in the caller
    sources passes.  Calls are matched by the called name; a class name
    stands for its ``__init__``, and a method's ``self`` or ``cls`` takes no
    position in a call."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
    out = []
    for module, source in package.items():
        tree = ast.parse(source)
        owner = {
            id(item): cls
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(node))
            name = cls.name if cls is not None and node.name == "__init__" else node.name
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            offset = 1 if cls is not None and not static else 0
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = [
                (a.arg, i - offset)
                for i, a in enumerate(positional)
                if i >= len(positional) - len(args.defaults)
            ]
            defaulted += [
                (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            out.extend(
                (module, node.name, param)
                for param, position in defaulted
                if not any(_passes(call, param, position) for call in calls.get(name, ()))
            )
    return sorted(out)


def test_every_defaulted_parameter_is_passed():
    package = {path.name: path.read_text() for path in MODULES}
    callers = [path.read_text() for path in CALLER_FILES]
    assert unpassed_defaults(package, callers) == []


def test_scan_flags_a_parameter_no_call_passes():
    package = {
        "m.py": (
            "def f(a, by_keyword=1, by_position=2, never=3, *, only_keyword=4):\n"
            "    return a\n"
            "def g(starred=1, spread=2):\n"
            "    return starred\n"
            "def h(kw=1):\n"
            "    return kw\n"
            "class K:\n"
            "    def __init__(self, size=0, unused=1):\n"
            "        self.size = size\n"
            "    def m(self, first=0, second=1):\n"
            "        return first\n"
            "    @staticmethod\n"
            "    def s(first=0, second=1):\n"
            "        return first\n"
        ),
    }
    callers = [
        "f(0, 1, by_keyword=5, only_keyword=6)\n"
        "g(*[1])\n"
        "h(**{'kw': 2})\n"
        "K(3).m(4)\n"
        "K.s(5)\n",
        "import m\nm.f(0, 1, 2)\n",
    ]
    assert unpassed_defaults(package, callers) == [
        ("m.py", "__init__", "unused"),
        ("m.py", "f", "never"),
        ("m.py", "m", "second"),
        ("m.py", "s", "second"),
    ]
