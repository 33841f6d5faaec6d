"""The oracles stay apart from the engine: no engine module imports them."""

import ast
from pathlib import Path

import hlgysin

PACKAGE = Path(hlgysin.__file__).resolve().parent
ENGINE = ("antisym", "cli", "gysin", "hallittlewood", "identities", "polyring", "symgroup")


def imported_modules(path):
    """Dotted name of every module, or module attribute, that a file of the
    package imports; relative imports are resolved against the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["hlgysin", base]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_every_module_is_engine_or_oracle():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == {*ENGINE, "__init__", "oracles"}


def test_no_engine_module_imports_the_oracles():
    for name in ENGINE:
        imports = set(imported_modules(PACKAGE / f"{name}.py"))
        assert "hlgysin.oracles" not in imports, name
