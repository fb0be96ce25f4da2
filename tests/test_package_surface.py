"""Every public function, class, property, constant and dataclass field in
the package has a caller.

A public top-level function or class of ``src/collide_qfi``, or a public
UPPER_CASE module constant, must be used somewhere in the package outside
its own definition, be exported from ``collide_qfi/__init__.py``, or be an
attribute that the span wrappers of perfbench/spans.py rebind. An export
needs a caller in the package itself: a name that only tests or span
targets use is not exported. A public
@property of a top-level class must be looked up as an attribute outside
its own definition. A use inside a definition that itself has no caller
does not count, and neither does a name that a function, lambda or
comprehension binds for itself: a parameter, local variable or class field
of the same name is no caller. A public field of a top-level dataclass must
be read as an attribute somewhere in the package; a read inside its own
class's ``__post_init__``, which only validates it, does not count. Code,
constants and fields that only tests use belong under ``tests/``. A
module-level import that its module does not use is there only for the span
wrappers, so it must be a span target of that module.

The package installs and runs on numpy alone: a module imports only the
standard library, numpy and the package itself when it is imported, and
numpy is the one runtime dependency ``pyproject.toml`` declares.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

from test_perfbench_contract import load_perfbench

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "collide_qfi"


# Nodes with a scope of their own: a name they bind is local to them.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
          ast.SetComp, ast.DictComp, ast.GeneratorExp)


def bound_names(scope):
    """Names a function, lambda or comprehension binds in its own scope:
    parameters, assignment and loop targets, nested definitions, imports and
    ``except ... as`` names, outside the scopes nested in it."""
    names = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.arg):
            names.add(n.arg)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            names.add(n.name)
        elif isinstance(n, ast.alias):
            names.add((n.asname or n.name).split(".")[0])
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        if not isinstance(n, SCOPES):
            stack.extend(ast.iter_child_nodes(n))
    return names


def used_names(node, bound=frozenset()):
    """Names under ``node`` that can reach a module-level definition: loaded
    names that no enclosing function, lambda or comprehension binds (those
    in ``bound`` included), and attribute lookups, recorded both as "attr"
    and as ".attr"."""
    if isinstance(node, SCOPES):
        bound = bound | bound_names(node)
    if isinstance(node, ast.Name):
        loaded = isinstance(node.ctx, ast.Load) and node.id not in bound
        return {node.id} if loaded else set()
    names = ({node.attr, "." + node.attr} if isinstance(node, ast.Attribute)
             else set())
    for child in ast.iter_child_nodes(node):
        names |= used_names(child, bound)
    return names


def public_names(node):
    """The public function, class or UPPER_CASE constants a top-level
    statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets
                 if isinstance(t, ast.Name) and t.id.isupper()]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def public_properties(node):
    """The public @property definitions of a top-level class."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [n for n in node.body if isinstance(n, ast.FunctionDef)
            and not n.name.startswith("_")
            and any(isinstance(d, ast.Name) and d.id == "property"
                    for d in n.decorator_list)]


def definitions(tree):
    """(names defined as (key, label) pairs, names used) per top-level
    statement. A public property is an entry of its own, keyed ".attr" so
    that only attribute lookups find it, and its body is no use by its
    class."""
    for node in tree.body:
        props = public_properties(node)
        for prop in props:
            yield ([("." + prop.name, f"{node.name}.{prop.name}")],
                   used_names(prop))
        bound = bound_names(node) if isinstance(node, SCOPES) else frozenset()
        yield ([(name, name) for name in public_names(node)],
               set().union(*(used_names(child, bound)
                             for child in ast.iter_child_nodes(node)
                             if child not in props)))


def package_trees():
    """The parsed modules of the package, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def exported_names(trees):
    """The names ``collide_qfi/__init__.py`` imports from its modules."""
    return {alias.asname or alias.name
            for node in trees["__init__.py"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def orphans(trees, roots):
    """(key, label) of each public definition that nothing in the package
    uses, where a name in ``roots`` counts as used."""
    # one entry per top-level statement or property, so a definition's own
    # body is not counted as a use of it; orphans are dropped and the search
    # repeats, so what only an orphan uses is found too
    live = dict(enumerate(
        ([(key, f"{name}:{label}") for key, label in defined], uses)
        for name, tree in trees.items() for defined, uses in definitions(tree)))
    out = []
    while found := [(entry, key, label)
                    for entry, (defined, _) in live.items()
                    for key, label in defined
                    if key not in roots
                    and not any(key in uses
                                for other, (_, uses) in live.items()
                                if other != entry)]:
        out += [(key, label) for _, key, label in found]
        for entry, _, _ in found:
            live.pop(entry, None)
    return out


def test_every_public_definition_has_a_caller():
    trees = package_trees()
    spanned = {attr for _, attr, _ in load_perfbench("spans").TARGETS}
    unused = [label for _, label in
              orphans(trees, exported_names(trees) | spanned)]
    assert not unused, f"public definitions with no caller in src/: {unused}"


def test_every_export_has_a_caller_in_the_package():
    # an export is the package's interface, not a way to keep test or
    # benchmark scaffolding in it: a name whose only callers are tests or
    # the span wrappers of perfbench/spans.py is not exported
    trees = package_trees()
    unused = {key for key, _ in orphans(trees, roots=set())}
    scaffolding = sorted(exported_names(trees) & unused)
    assert not scaffolding, ("exported from __init__ with no caller in src/: "
                             f"{scaffolding}")


def is_dataclass(node):
    """Whether a top-level statement is a class under @dataclass or
    @dataclass(...)."""
    return isinstance(node, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
        == "dataclass" for d in node.decorator_list)


def attribute_reads(node, owner=None):
    """(owner, attr) for every attribute loaded under ``node``: owner is the
    class whose ``__post_init__`` holds the read, None elsewhere."""
    reads = set()
    for child in ast.iter_child_nodes(node):
        inner = owner
        if (isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
                and child.name == "__post_init__"):
            inner = node.name
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            reads.add((inner, child.attr))
        reads |= attribute_reads(child, inner)
    return reads


def test_every_dataclass_field_has_a_reader():
    trees = package_trees()
    reads = set().union(*(attribute_reads(tree) for tree in trees.values()))
    unread = [f"{name}:{node.name}.{field.target.id}"
              for name, tree in trees.items()
              for node in tree.body if is_dataclass(node)
              for field in node.body
              if isinstance(field, ast.AnnAssign)
              and isinstance(field.target, ast.Name)
              and not field.target.id.startswith("_")
              and not any(attr == field.target.id and owner != node.name
                          for owner, attr in reads)]
    assert not unread, f"dataclass fields with no reader in src/: {unread}"


def unused_imports(tree):
    """Names that a module's top-level imports bind and that the module never
    loads. ``from __future__`` imports bind nothing."""
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - loaded


def test_every_unused_import_is_a_span_target():
    # an import a module does not use only rebinds a name for the span
    # wrappers; once perfbench/spans.py drops that target, the import goes.
    # __init__.py's imports are the package's exports.
    trees = package_trees()
    targets = {(mod, attr) for mod, attr, _ in load_perfbench("spans").TARGETS}
    stray = sorted(f"{name[:-3]}.{attr}" for name, tree in trees.items()
                   if name != "__init__.py"
                   for attr in unused_imports(tree)
                   if (name[:-3], attr) not in targets)
    assert not stray, f"imports with no use and no span target: {stray}"


def import_time_modules(tree):
    """Top-level names of the modules that a module's imports outside its
    function bodies load; a relative import loads the package itself."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("collide_qfi" if node.level
                      else node.module.split(".")[0])
        elif not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def test_modules_import_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "collide_qfi"}
    foreign = sorted(f"{name}:{module}"
                     for name, tree in package_trees().items()
                     for module in import_time_modules(tree) - allowed)
    assert not foreign, f"imports outside stdlib, numpy and the package: {foreign}"


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group()
             for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])
