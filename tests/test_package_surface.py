"""Every public function, class and constant in the package has a caller.

A public top-level function or class of ``src/collide_qfi``, or a public
UPPER_CASE module constant, must be used somewhere in the package outside
its own definition, be exported from ``collide_qfi/__init__.py``, or be an
attribute that the span wrappers of perfbench/spans.py rebind. A use inside
a definition that itself has no caller does not count. Code and constants
that only tests use belong under ``tests/``.
"""

import ast
from pathlib import Path

from test_perfbench_contract import load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "collide_qfi"


def used_names(node):
    """Names loaded or looked up as attributes anywhere under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


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


def test_every_public_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    spanned = {attr for _, attr, _ in load_spans().TARGETS}
    # one entry per top-level statement, so a definition's own body is not
    # counted as a use of it; orphans are dropped and the search repeats, so
    # what only an orphan uses is found too
    live = {id(node): (name, node, used_names(node))
            for name, tree in trees.items() for node in tree.body}
    orphans = []
    while found := [(key, f"{name}:{defined}")
                    for key, (name, node, _) in live.items()
                    for defined in public_names(node)
                    if defined not in exported | spanned
                    and not any(defined in names
                                for other, (_, _, names) in live.items()
                                if other != key)]:
        orphans += [label for _, label in found]
        for key, _ in found:
            live.pop(key, None)
    assert not orphans, f"public definitions with no caller in src/: {orphans}"
