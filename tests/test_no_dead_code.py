"""Every name src/egorank defines or imports is used there.

A module-level function, class or constant counts as used when some code
in the package loads it: by name, or as an attribute (``module.NAME``).
A name that a module-level import binds, one under ``if TYPE_CHECKING:``
included, counts as used only when the importing module loads it by name.
A public method, property or classmethod counts as used only when some
code in the package loads it as an attribute (``obj.method``,
``cls.build``). Imports and the definition itself do not count, so a name
that only tests call is flagged. Likewise a defaulted parameter counts as
used only when some call in the package passes it, by keyword or by
position, so an option that only tests set is flagged. A ``_name`` is
private to its module: no other module in the package imports it.

Two more checks keep one read path for input files: ``corpus.csv_rows``
holds the only ``csv.reader`` call, and no module imports ``importlib``,
so the shipped resources are read as plain files.
"""

import ast

from conftest import SRC

PACKAGE = SRC / "egorank"

# Tests drive the entry point, so only main's argv is left to its default.
EXEMPT = {"cli.main.argv"}


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


def _defaulted(tree):
    """(qualname, called name, parameter, positional index or None, line)
    of each defaulted parameter. An ``__init__`` is called by its class's
    name, a method's index skips ``self`` or ``cls``, and a keyword-only
    parameter has none."""
    def visit(node, owner):
        for item in node.body:
            if isinstance(item, ast.ClassDef):
                yield from visit(item, item.name)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = item.args
                positional = args.posonlyargs + args.args
                if owner is not None and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list):
                    positional = positional[1:]
                qualname = f"{owner}.{item.name}" if owner else item.name
                name = owner if item.name == "__init__" else item.name
                first = len(positional) - len(args.defaults)
                for i, param in enumerate(positional[first:], start=first):
                    yield qualname, name, param.arg, i, item.lineno
                for param, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualname, name, param.arg, None, item.lineno
                yield from visit(item, None)
    yield from visit(tree, None)


def _calls(tree):
    """(called name, positional count, keyword names) of each call; a
    ``*args`` counts as every position and a ``**kwargs`` as every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (name, float("inf") if starred else len(node.args),
                   None if None in keywords else keywords)


def test_every_defaulted_parameter_is_passed_in_src():
    trees = _trees()
    calls = [call for tree in trees.values() for call in _calls(tree)]
    unused = [f"{module}:{line} {qualname}({param})"
              for module, tree in trees.items()
              for qualname, name, param, index, line in _defaulted(tree)
              if f"{module[:-3]}.{qualname}.{param}" not in EXEMPT
              and not any(called == name and (
                  keywords is None or param in keywords
                  or (index is not None and index < positional))
                  for called, positional, keywords in calls)]
    assert not unused, "defaulted but never passed in src/egorank: " + ", ".join(unused)


def _imported(tree):
    """(name, line) of each name a module-level import binds, also inside a
    module-level ``if`` such as ``if TYPE_CHECKING:``."""
    for node in tree.body:
        for item in (node.body + node.orelse if isinstance(node, ast.If) else [node]):
            if isinstance(item, ast.ImportFrom) and item.module == "__future__":
                continue
            if isinstance(item, (ast.Import, ast.ImportFrom)):
                for alias in item.names:
                    yield alias.asname or alias.name.split(".")[0], item.lineno


def test_every_import_is_used():
    unused = []
    for module, tree in _trees().items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{module}:{line} {name}"
                   for name, line in _imported(tree) if name not in loaded]
    assert not unused, "imported in src/egorank but never loaded there: " + ", ".join(unused)


def test_no_private_name_is_imported_across_modules():
    imported = [f"{module}:{node.lineno} {alias.name}"
                for module, tree in _trees().items()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert not imported, "private names imported from another module: " + ", ".join(imported)


def _scopes(tree):
    """(enclosing module-level def or None, node) of each node of a module."""
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            yield scope, node


def test_every_csv_file_is_read_by_one_reader():
    # Every CSV input, the labeled seed corpus included, goes through
    # corpus.csv_rows, so its header, cell-count and row-number rules hold for all.
    readers = [(module, scope)
               for module, tree in _trees().items()
               for scope, node in _scopes(tree)
               if (isinstance(node, ast.Attribute) and node.attr == "reader"
                   and isinstance(node.value, ast.Name) and node.value.id == "csv")
               or (isinstance(node, ast.ImportFrom) and node.module == "csv")]
    assert readers == [("corpus.py", "csv_rows")]


def test_no_module_imports_importlib():
    # Shipped resources are read as plain files, like the user's own.
    importing = [f"{module}:{node.lineno}"
                 for module, tree in _trees().items()
                 for node in ast.walk(tree)
                 if (isinstance(node, ast.Import)
                     and any(a.name.split(".")[0] == "importlib" for a in node.names))
                 or (isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "importlib")]
    assert not importing, "importlib imported in src/egorank: " + ", ".join(importing)
