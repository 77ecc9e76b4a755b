"""The declared public surface resolves: every name in a module's
__all__ exists, every console-script target in pyproject.toml imports,
no module keeps an import it neither uses nor re-exports, and no error
class goes unused."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path
from types import FunctionType

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import pytest

import partalg

MODULES = ["partalg"] + [
    f"partalg.{info.name}" for info in pkgutil.iter_modules(partalg.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_script_targets_import():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def _unused_imports(path: Path) -> list[str]:
    """Names bound by top-level imports of the module that no name in
    it reads and its __all__ does not list."""
    tree = ast.parse(path.read_text())
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


SOURCES = sorted(Path(partalg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path) == []


def test_every_error_class_is_named_outside_errors():
    """Each domain error but the base class is named by another module
    of the package, so no error class outlives its last raise."""
    from partalg import errors

    others = "\n".join(p.read_text() for p in SOURCES if p.name != "errors.py")
    names = (name for name in errors.__all__ if name != "PartalgError")
    assert [name for name in names if not re.search(rf"\b{name}\b", others)] == []


def test_no_module_imports_random():
    """Checks prove on bases or generators; none samples."""
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        modules = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        }
        modules |= {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        }
        assert "random" not in modules, path.name


def test_only_scalars_and_eps_ratio_name_ratfunc():
    """Coefficients are polynomials: a rational function is only the
    generic value of structure.eps_ratio."""
    named = [path.name for path in SOURCES if re.search(r"\bRatFunc\b", path.read_text())]
    assert named == ["scalars.py", "structure.py"]


def _public_functions():
    """Every function in a module's __all__, and every public method
    and constructor defined by a class there."""
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if not inspect.isclass(obj):
                members = {attr: obj}
            else:
                members = {
                    f"{attr}.{method}": getattr(obj, method)
                    for method, member in vars(obj).items()
                    if isinstance(member, (FunctionType, staticmethod, classmethod))
                    and (not method.startswith("_") or method in ("__init__", "__new__"))
                }
            for qualified, function in members.items():
                if inspect.isroutine(function):
                    yield f"{name}.{qualified}", function


def test_no_public_function_takes_a_seed_or_a_sample_count():
    found = [
        qualified
        for qualified, obj in _public_functions()
        if {"seed", "samples"} & inspect.signature(obj).parameters.keys()
    ]
    assert found == []


def test_unused_import_guard_sees_an_orphan(tmp_path):
    module = tmp_path / "orphan.py"
    module.write_text(
        "import os\nimport sys as system\nfrom math import lcm, pi\n"
        "from .x import kept\n__all__ = ['kept']\nprint(system.argv, pi)\n"
    )
    assert _unused_imports(module) == ["lcm", "os"]
