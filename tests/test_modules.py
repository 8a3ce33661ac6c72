"""The module graph: the families and the named fixtures do not depend on
the tracer or the CLI, ``Family`` has one home, and the CLI uses only
public names of the package."""

import ast
from pathlib import Path

import pytest

import slpkit

PKG = Path(slpkit.__file__).parent


def _tree(name: str) -> ast.Module:
    return ast.parse((PKG / f"{name}.py").read_text(encoding="utf-8"))


def _from_imports(name: str) -> list:
    """``(module, imported names)`` of every ``from ... import`` in a
    package module, with relative imports resolved inside ``slpkit``."""
    out = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "slpkit" + ("." + module if module else "")
            out.append((module, [alias.name for alias in node.names]))
    return out


def _imported_modules(name: str) -> set:
    """Every module a package module may bind by importing: the module of
    each import, and each name imported from it taken as a submodule."""
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
    for module, names in _from_imports(name):
        out.add(module)
        out.update(f"{module}.{n}" for n in names)
    return out


@pytest.mark.parametrize("name", ["families", "fixtures"])
def test_families_and_fixtures_do_not_import_tracer_or_cli(name):
    imported = _imported_modules(name)
    assert not imported & {"slpkit.tracing", "slpkit.cli"}


def test_family_is_defined_only_in_families():
    homes = [
        path.stem
        for path in sorted(PKG.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == "Family"
    ]
    assert homes == ["families"]


def test_cli_imports_no_private_names():
    private = [
        (module, n)
        for module, names in _from_imports("cli")
        if module == "slpkit" or module.startswith("slpkit.")
        for n in names
        if n.startswith("_")
    ]
    assert private == []
