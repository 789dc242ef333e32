"""The package's public names: every one listed exists and can be imported."""

import ast
import importlib
import inspect
import pkgutil
import types
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


# the package-level names, submodules aside: a move between modules must not
# drop or rename one
PUBLIC_NAMES = [
    "BoundaryCurve", "BuildReport", "CheckResult", "ConvergenceVerdict",
    "ExteriorMapSeries", "MemoCache", "MomentVector", "Monomial", "NKey",
    "PotentialSeries", "SLMatrix", "TruncatedSeries", "TruncationPolicy",
    "bounded_compositions_count", "build_potential", "cauchy_data_check",
    "combinatorial_formula_check", "convergence_gate", "default_policy",
    "degree_term_sums", "ellipse_oracle_check", "evaluate_map",
    "factorial_pattern_check", "map_from_potential", "moments_from_curve",
    "n1_coefficient", "n2_coefficient", "roundtrip", "s_coefficient",
    "t1_coefficient", "t2_coefficient", "toda_residual_a", "toda_residual_b",
    "toda_residual_c", "v_moments_from_curve",
]


def test_package_public_names_are_pinned():
    names = [
        name
        for name in dir(taumap)
        if not name.startswith("_") and not isinstance(getattr(taumap, name), types.ModuleType)
    ]
    assert names == PUBLIC_NAMES


def test_every_check_is_defined_in_verify():
    # one module judges: every public *_check function and CheckResult live there
    modules = [taumap] + [importlib.import_module(f"taumap.{name}") for name in MODULES]
    checks = [
        getattr(module, name)
        for module in modules
        for name in getattr(module, "__all__", PUBLIC_NAMES)
        if name.endswith("_check")
    ]
    assert taumap.cauchy_data_check in checks
    assert all(inspect.isfunction(fn) and fn.__module__ == "taumap.verify" for fn in checks)
    assert taumap.CheckResult.__module__ == "taumap.verify"


def _taumap_imports(name):
    """The ``taumap`` modules that module ``name`` imports, read from its source."""
    path = Path(taumap.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.module.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and (node.level or node.module.startswith("taumap."))
    }


def test_modules_import_in_pipeline_order():
    # domain -> moments -> potential -> map: a module imports only the stages
    # before it, and the checks import no builder
    imports = {name: _taumap_imports(name) for name in MODULES}
    assert imports["series"] == set()
    assert imports["moments"] == set()
    assert imports["coefficients"] <= {"series"}
    assert imports["potential"] <= {"series", "coefficients"}
    assert imports["confmap"] <= {"series", "moments"}
    assert not imports["verify"] & {"potential", "cli"}


def test_only_series_reads_the_codec_layout():
    # the packing has one owner: other modules read a code through the
    # codec's shift, mask and t0_shift, never its field width or field order
    readers = {
        name
        for name in MODULES
        for node in ast.walk(
            ast.parse(Path(taumap.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
        )
        if isinstance(node, ast.Attribute) and node.attr in {"bits", "variables"}
    }
    assert readers == {"series"}
