"""Every name the package defines is used by the package.

A function, class, constant, method or property that only the tests reach
is dead weight: it has to be kept correct without any run kind depending on
it. These tests parse ``src/spinheat/*.py`` and fail when a name defined
at module level, or a method or property defined in a class body, is never
loaded (read as a value or as an attribute) anywhere in the package: one
test for public names, one for private ones (a leading underscore). Dunder
names are left out, as Python itself reads them. Imports alone do not
count as a use.

A third test holds the fields of every dataclass and NamedTuple to the
same rule: each must be read as an attribute somewhere in the package
outside its own class's ``__post_init__``, as a field that only its own
validation reads carries nothing a run uses. FIELD_READERS lists the
records whose fields are read another way.
"""

import ast
import pathlib

import spinheat

PACKAGE = pathlib.Path(spinheat.__file__).parent

ALLOWED = set()
# records whose fields the package reads without an attribute load
FIELD_READERS = {
    "ErasureBranch": "VerifiedErasure's rows and summary read each branch "
                     "through dataclasses.astuple and asdict",
    "FeasibilityReport": "VerifiedErasure.summary reads the report through "
                         "dataclasses.asdict",
    "Shifted": "_taylor_steps unpacks it as a tuple",
}


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


def _called_name(expr):
    """The name of a decorator or base: ``x`` of ``x``, ``m.x`` or
    ``x(...)``."""
    expr = expr.func if isinstance(expr, ast.Call) else expr
    return expr.attr if isinstance(expr, ast.Attribute) else getattr(
        expr, "id", None)


def _is_record(node):
    """Whether a class definition is a dataclass or a NamedTuple."""
    return ("dataclass" in map(_called_name, node.decorator_list)
            or "NamedTuple" in map(_called_name, node.bases))


def _record_fields(trees):
    """``Class.field`` of every annotated field of a record class."""
    return sorted(f"{node.name}.{item.target.id}"
                  for tree in trees.values() for node in tree.body
                  if isinstance(node, ast.ClassDef) and _is_record(node)
                  for item in node.body if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name))


def _attribute_loads(trees):
    """(attribute, class) of every attribute load, with the class whose
    ``__post_init__`` holds it, or None."""
    loads = []
    for tree in trees.values():
        validators = {id(sub): node.name for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name == "__post_init__"
                      for sub in ast.walk(item)}
        loads.extend((node.attr, validators.get(id(node)))
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load))
    return loads


def test_every_record_field_is_read_outside_its_validation():
    trees = _trees()
    loads = _attribute_loads(trees)
    unread = [field for field in _record_fields(trees)
              if field.partition(".")[0] not in FIELD_READERS
              and not any(attr == field.partition(".")[2]
                          and owner != field.partition(".")[0]
                          for attr, owner in loads)]
    assert unread == []


def test_field_reader_records_exist():
    records = {field.partition(".")[0] for field in _record_fields(_trees())}
    assert set(FIELD_READERS) <= records
