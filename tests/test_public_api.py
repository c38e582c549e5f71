"""Public-API surface checks: imports, __all__ hygiene, version."""

import ast
import importlib
import types
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.simulate",
    "repro.network",
    "repro.cluster",
    "repro.storage",
    "repro.mpi",
    "repro.blcr",
    "repro.ftb",
    "repro.launch",
    "repro.pipeline",
    "repro.core",
    "repro.workloads",
    "repro.analysis",
    "repro.sched",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_all_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"
    exported = getattr(mod, "__all__", [])
    assert exported, f"{name} lacks __all__"
    for symbol in exported:
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_top_level_quickstart_surface():
    """The README's quickstart names must exist exactly as documented."""
    import repro

    for name in ("Scenario", "JobMigrationFramework", "MigrationTrigger",
                 "CheckpointRestartStrategy", "LiveMigrationStrategy",
                 "RDMAMigrationSession", "NPBApplication", "NPB_TABLE",
                 "DEFAULT_TESTBED", "MB"):
        assert hasattr(repro, name), name


def test_public_classes_have_docstrings():
    import repro

    for name in repro.__all__:
        obj = getattr(repro, name)
        if isinstance(obj, type):
            assert obj.__doc__, f"{name} lacks a class docstring"


ROOT = Path(__file__).resolve().parents[1]


def _repro_modules():
    """``(path, module name)`` of every non-package module of ``repro``."""
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        if path.name != "__init__.py":
            yield path, ".".join(path.relative_to(src).with_suffix("").parts)


def _production_files():
    """``(path, module name)`` of every production source file.

    Package ``__init__`` files under ``src/repro`` are skipped: their
    re-exports do not make a module used.
    """
    yield from _repro_modules()
    for top in ("bench", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            parts = path.relative_to(ROOT).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            yield path, ".".join(parts)


def _credited_modules(path, module):
    """Modules under ``repro`` that the file at ``path`` takes names from."""
    credited = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                credited.update(".".join(parts[:i + 1])
                                for i in range(len(parts)))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = module.split(".")[:-node.level]
                name = ".".join(base + ([node.module] if node.module else []))
            else:
                name = node.module
            if name.split(".")[0] != "repro":
                continue
            source = importlib.import_module(name)
            for alias in node.names:
                obj = getattr(source, alias.name)
                if isinstance(obj, types.ModuleType):
                    credited.add(obj.__name__)
                else:
                    # Constants carry no __module__: credit their source.
                    owner = getattr(obj, "__module__", None)
                    credited.add(owner if isinstance(owner, str) else name)
    return credited


def test_every_module_has_a_production_importer():
    """Every ``repro`` module is imported by production code: another
    module of the package, the bench, the paper benches or an example.
    A module only its own tests import is dead code."""
    modules = {name for _, name in _repro_modules()} - {"repro.__main__"}
    credited = set()
    for path, module in _production_files():
        credited |= _credited_modules(path, module) - {module}
    unused = sorted(modules - credited)
    assert unused == [], f"modules no production file imports: {unused}"
