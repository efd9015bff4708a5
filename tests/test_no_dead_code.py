"""Every module-level function, class and constant in src/egorank is used there.

A name counts as used when some code in the package loads it: by name, or
as an attribute (``module.NAME``, ``cls.method``). Imports and the
definition itself do not count, so a name that only tests call is flagged.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "egorank"

# read_corpus_csvs is the reader half of write_corpus_csvs: the synthetic
# round-trip test needs it to show that written corpora load back unchanged.
EXEMPT = {"read_corpus_csvs"}


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


def _loaded(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_module_level_name_is_loaded():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loaded(tree)}
    dead = [f"{module}:{line} {name}"
            for module, tree in trees.items()
            for name, line in _defined(tree)
            if name not in loaded and name not in EXEMPT and not name.startswith("__")]
    assert not dead, "defined in src/egorank but never used there: " + ", ".join(dead)
