"""Every name src/egorank defines is used there.

A module-level function, class or constant counts as used when some code
in the package loads it: by name, or as an attribute (``module.NAME``).
A public method, property or classmethod counts as used only when some
code in the package loads it as an attribute (``obj.method``,
``cls.build``). Imports and the definition itself do not count, so a name
that only tests call is flagged.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "egorank"

EXEMPT: set[str] = set()


def _defined(tree):
    """(name, line) of each module-level def, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _members(tree):
    """(Class.name, name, line) of each public method, property and classmethod."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_module_level_name_is_loaded():
    trees = _trees()
    loaded = {name for tree in trees.values() for name in _loaded(tree)}
    dead = [f"{module}:{line} {name}"
            for module, tree in trees.items()
            for name, line in _defined(tree)
            if name not in loaded and name not in EXEMPT and not name.startswith("__")]
    assert not dead, "defined in src/egorank but never used there: " + ", ".join(dead)


def test_every_public_class_member_is_loaded_as_an_attribute():
    trees = _trees()
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = [f"{module}:{line} {qualname}"
            for module, tree in trees.items()
            for qualname, name, line in _members(tree)
            if name not in attributes and qualname not in EXEMPT]
    assert not dead, "defined in src/egorank but never loaded there: " + ", ".join(dead)
