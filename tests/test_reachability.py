"""Every name the package defines is used by the package.

A function, class, constant, method or property that only the tests reach
is dead weight: it has to be kept correct without any run kind depending on
it. These tests parse ``src/spinheat/*.py`` and fail when a name defined
at module level, or a method or property defined in a class body, is never
loaded (read as a value or as an attribute) anywhere in the package: one
test for public names, one for private ones (a leading underscore). Dunder
names are left out, as Python itself reads them. Imports alone do not
count as a use. Dataclass fields are left out: ``dataclasses.asdict`` and
the generated ``__init__`` read them without an attribute load.
"""

import ast
import pathlib

import spinheat

PACKAGE = pathlib.Path(spinheat.__file__).parent

ALLOWED = set()


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """Module-level names, and ``Class.method`` for functions (methods and
    properties alike) defined directly in a module-level class body,
    dunder names left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.extend(target.id for target in targets
                         if isinstance(target, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.extend(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return [name for name in names
            if not name.rpartition(".")[2].startswith("__")]


def _public_definitions(tree):
    return [name for name in _definitions(tree)
            if not name.rpartition(".")[2].startswith("_")]


def _private_definitions(tree):
    return [name for name in _definitions(tree)
            if name.rpartition(".")[2].startswith("_")]


def _loaded_names(tree):
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            loaded.add(node.attr)
    return loaded


def _unused(definitions):
    trees = _trees()
    loaded = set().union(*(_loaded_names(tree) for tree in trees.values()))
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in definitions(tree)
                  if name.rpartition(".")[2] not in loaded
                  and name not in ALLOWED)


def test_every_public_name_is_used_by_the_package():
    assert _unused(_public_definitions) == []


def test_every_private_name_is_used_by_the_package():
    assert _unused(_private_definitions) == []


def test_allowlist_names_exist():
    defined = {name for tree in _trees().values()
               for name in _public_definitions(tree)}
    assert ALLOWED <= defined
