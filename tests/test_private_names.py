"""No private name of the package is left that nothing in the package reads.

A private name starts with one underscore.  Those checked are the
module-level functions, classes and constants of every module of the
package, and the methods of its classes.  A name is read where a module
loads it as a name or an attribute, or imports it; a definition reading
its own name, as a recursion does, does not count."""

import ast
from collections import Counter
from pathlib import Path

import hlgysin

PACKAGE = Path(hlgysin.__file__).resolve().parent


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def definitions(tree):
    """(node, name) for each private name that a top-level statement of
    ``tree`` defines, and for each private method with its own node."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item, item.name) for item in node.body if isinstance(item, ast.FunctionDef)]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (node, name.id) for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
    return [(node, name) for node, name in found if is_private(name)]


def reads(node):
    """How often each name is read within ``node``."""
    read = Counter()
    for item in ast.walk(node):
        if isinstance(item, ast.Name) and isinstance(item.ctx, ast.Load):
            read[item.id] += 1
        elif isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Load):
            read[item.attr] += 1
        elif isinstance(item, ast.ImportFrom):
            read.update(alias.name for alias in item.names)
    return read


def unread_private_names(sources):
    """The private names defined in ``sources``, a list of module texts,
    that no module reads outside the name's own definition."""
    trees = [ast.parse(source) for source in sources]
    read = sum((reads(tree) for tree in trees), Counter())
    return [
        name
        for tree in trees
        for node, name in definitions(tree)
        if read[name] <= reads(node)[name]
    ]


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
    assert unread_private_names([engine, caller]) == ["_SPARE", "_walk", "_lost"]


def test_every_private_name_of_the_package_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []
