"""The oracles stay apart from the engine: no engine module imports them.
The verifiers and the CLI sit on top of the engine: no module under them
imports either, so the push-forward input builder lives in the engine.
Among the core modules only symgroup, which enumerates cosets, holds the
permutation bound."""

import ast
from pathlib import Path

import pytest

import hlgysin

PACKAGE = Path(hlgysin.__file__).resolve().parent
ENGINE = ("antisym", "cli", "gysin", "hallittlewood", "identities", "polyring", "symgroup")
CORE = ("antisym", "gysin", "hallittlewood", "polyring", "symgroup")


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


def test_the_oracles_take_nothing_from_the_engines_orbit_machinery():
    """The Schur P oracle enumerates its own partitions and rearrangements."""
    imports = set(imported_modules(PACKAGE / "oracles.py"))
    engine_orbits = {
        "hlgysin.antisym._rearrangements",
        "hlgysin.antisym._expand",
        "hlgysin.hallittlewood._rows",
        "hlgysin.hallittlewood.hall_littlewood_p",
    }
    assert not imports & engine_orbits
    assert not [m for m in imports if m.startswith("hlgysin.gysin")]


def test_the_oracles_import_nothing_from_antisym():
    """The plain divided difference and the bialternant are oracles, so the
    engine's divided differences on orbits are checked against code that
    shares nothing with them."""
    imports = imported_modules(PACKAGE / "oracles.py")
    assert not [m for m in imports if m.startswith("hlgysin.antisym")]


def test_antisym_defines_no_public_function():
    """antisym holds only the orbit tower and its helpers."""
    tree = ast.parse((PACKAGE / "antisym.py").read_text())
    public = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert public == []


def test_no_core_module_imports_the_verifiers_or_the_cli():
    for name in CORE:
        imports = set(imported_modules(PACKAGE / f"{name}.py"))
        assert not imports & {"hlgysin.identities", "hlgysin.cli"}, name


def named(path):
    """Every name a file of the package imports or reads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
    yield from (module.rpartition(".")[2] for module in imported_modules(path))


def test_only_symgroup_holds_the_permutation_bound_among_the_core():
    """The bound guards enumeration only: no class or push-forward checks it."""
    policy = {"ensure_within_bound", "DEFAULT_PERMUTATION_BOUND"}
    holders = [name for name in CORE if policy & set(named(PACKAGE / f"{name}.py"))]
    assert holders == ["symgroup"]


@pytest.mark.parametrize("name", ["antisym", "gysin"])
def test_antisym_imports_nothing_from_symgroup(name):
    """The orbit tower and the push-forwards relabel variables by key maps,
    never by permutations."""
    imports = imported_modules(PACKAGE / f"{name}.py")
    assert not [m for m in imports if m.startswith("hlgysin.symgroup")]
