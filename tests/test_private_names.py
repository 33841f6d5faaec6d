"""No private name of the package is left that nothing in the package reaches.

A private name starts with one underscore.  Those checked are the
module-level functions, classes and constants of every module of the
package, and the methods of its classes.  A name is read where a module
loads it as a name or an attribute, or imports it.  The roots are the
public functions and classes, every public method, and every other
module-level statement.  A private name is reached where a root reads it,
or where the definition of a reached name does; so a helper read only by
helpers that nothing reaches, or by itself, as a recursion does, is
reported with them."""

import ast
from collections import defaultdict
from pathlib import Path

import hlgysin

PACKAGE = Path(hlgysin.__file__).resolve().parent


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def definitions(tree):
    """(node, private names it defines) for each top-level statement of
    ``tree`` and each method of its classes; a node defining none is a
    root."""
    found = []
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        found.append((node, names))
        if isinstance(node, ast.ClassDef):
            found += [(item, [item.name]) for item in node.body if isinstance(item, ast.FunctionDef)]
    return [(node, [name for name in names if is_private(name)]) for node, names in found]


def reads(node):
    """The names read within ``node``; a class's methods are left out, as
    they are definitions of their own."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        body = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
        parts = node.bases + node.keywords + node.decorator_list + body
    read = set()
    for item in (item for part in parts for item in ast.walk(part)):
        if isinstance(item, (ast.Name, ast.Attribute)) and isinstance(item.ctx, ast.Load):
            read.add(item.id if isinstance(item, ast.Name) else item.attr)
        elif isinstance(item, ast.ImportFrom):
            read.update(alias.name for alias in item.names)
    return read


def unread_private_names(sources):
    """The private names defined in ``sources``, a list of module texts,
    that no root reaches, in the order they are defined."""
    found = [d for source in sources for d in definitions(ast.parse(source))]
    defining = defaultdict(list)
    for node, names in found:
        for name in names:
            defining[name].append(node)
    todo = [node for node, names in found if not names]
    reached = set()
    while todo:
        for name in reads(todo.pop()) & defining.keys() - reached:
            reached.add(name)
            todo += defining[name]
    return [name for _, names in found for name in names if name not in reached]


def test_unread_private_names_are_found():
    engine = (
        "_WIDTH = 8\n"
        "_SPARE = 1\n"
        "def _walk(k):\n    return _walk(k - 1) if k else _WIDTH\n"
        "def _used():\n    return 1\n"
        "class _Box:\n"
        "    def _kept(self):\n        return self._dropped\n"
        "    def _lost(self):\n        return 0\n"
        "    def __len__(self):\n        return 0\n"
    )
    caller = "from engine import _used, _Box\nprint(_Box()._kept())\n"
    # _WIDTH is read only by _walk, which nothing reaches
    assert unread_private_names([engine, caller]) == ["_WIDTH", "_SPARE", "_walk", "_lost"]
    chains = (
        "def _mover(k):\n    return k + 1\n"
        "def _level_divider(k):\n    return _mover(k)\n"
        "def _ping(k):\n    return _pong(k)\n"
        "def _pong(k):\n    return _ping(k)\n"
        "_BASE = 2\n"
        "def _scale(k):\n    return _BASE * k\n"
        "class Ring:\n"
        "    def double(self, k):\n        return self._twice(k)\n"
        "    def _twice(self, k):\n        return _scale(k)\n"
    )
    assert unread_private_names([chains]) == ["_mover", "_level_divider", "_ping", "_pong"]


def test_every_private_name_of_the_package_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []
