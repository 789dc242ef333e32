"""The package's public names: every one listed exists and can be imported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import taumap

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(taumap.__path__) if name != "__main__"
)


def test_every_module_is_scanned():
    assert {"cli", "coefficients", "confmap", "moments", "potential", "series",
            "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_defines(name):
    module = importlib.import_module(f"taumap.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from taumap.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_imports_only_public_names():
    # what the package re-exports is public where it is defined
    tree = ast.parse(Path(taumap.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"taumap.{node.module}")
        for alias in node.names:
            assert hasattr(taumap, alias.asname or alias.name), alias.name
            assert alias.name in module.__all__, (node.module, alias.name)
