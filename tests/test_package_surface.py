"""Every public function and class in the package has a caller.

A public top-level function or class of ``src/collide_qfi`` must be used
somewhere in the package outside its own definition, be exported from
``collide_qfi/__init__.py``, or be an attribute that the span wrappers of
perfbench/spans.py rebind. Code that only tests call belongs under
``tests/``.
"""

import ast
from pathlib import Path

from test_perfbench_contract import load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "collide_qfi"


def used_names(node):
    """Names loaded or looked up as attributes anywhere under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    spanned = {attr for _, attr, _ in load_spans().TARGETS}
    # one entry per top-level statement, so a definition's own body is not
    # counted as a use of it
    uses = [(node, used_names(node)) for tree in trees.values()
            for node in tree.body]
    orphans = [f"{name}:{node.name}" for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and node.name not in exported | spanned
               and not any(node.name in names for other, names in uses
                           if other is not node)]
    assert not orphans, f"public definitions with no caller in src/: {orphans}"
