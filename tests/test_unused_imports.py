"""Every name a file imports is used in that file.

An import that nothing reads costs start-up time in the package and hides
what a test really depends on. These tests parse ``src/spinheat/*.py`` and
``tests/*.py`` and fail when a name bound by an import, at module level or
inside a function, is never loaded (read as a value, or as the root of an
attribute chain) anywhere in its own file. ``import a.b`` binds ``a``;
``from __future__`` imports are left out.
"""

import ast
import pathlib

import spinheat

FILES = (sorted(pathlib.Path(spinheat.__file__).parent.glob("*.py"))
         + sorted(pathlib.Path(__file__).parent.glob("*.py")))


def _unused_imports(source):
    """(line, name) of each imported name that ``source`` never loads."""
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in loaded:
                unused.append((node.lineno, name))
    return unused


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport numpy.linalg\nfrom math import pi, tau\n"
              "def f():\n    import sys\n    return numpy.linalg, tau\n")
    assert _unused_imports(source) == [(1, "os"), (3, "pi"), (5, "sys")]


def test_every_imported_name_is_used_in_its_file():
    unused = [f"{path.parent.name}/{path.name}:{line} {name}"
              for path in FILES
              for line, name in _unused_imports(path.read_text())]
    assert unused == []
