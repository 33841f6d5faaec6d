"""No module of the package imports a name it never reads.

A name is read where a module loads it or lists it in ``__all__``.  An
import on a line marked ``# noqa: F401`` is exempt, as is ``from
__future__``, whose names switch on features and are never read."""

import ast
from pathlib import Path

import pytest

import hlgysin

PACKAGE = Path(hlgysin.__file__).resolve().parent


def unread_imports(source):
    """The names that the imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                if any("# noqa: F401" in line for line in marked):
                    continue
                name = alias.asname or alias.name
                bound.append(name if isinstance(node, ast.ImportFrom) else name.split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from a import (\n    b,\n    c,  # noqa: F401\n    d,\n)\n"
        "from e import f  # noqa: F401\n"
        "__all__ = ['d']\n"
        "print(b)\n"
    )
    assert unread_imports(source) == ["os", "j"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unread_imports(path.read_text()) == []
