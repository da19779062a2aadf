"""The package layering of ``repro``: every import points down.

:data:`LAYERS` is the source of truth for the order of the subpackages,
bottom-up. A module may import from its own package and from any package
listed before it, never from one listed after. Every import counts:
top-level ones, ones inside functions, and ones under ``TYPE_CHECKING``.
The order is strict, so the package graph it admits has no cycle, and
no module needs a lazy ``__getattr__`` re-export to dodge one.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.experiments import list_experiments

SRC = Path(__file__).resolve().parents[1] / "src"
ARCHITECTURE = SRC.parent / "docs" / "ARCHITECTURE.md"

#: bottom-up: each package may import only itself and the ones before it
LAYERS = (
    "worker",
    "mpi",
    "options",
    "frame",
    "cluster",
    "comms",
    "telemetry",
    "train",
    "ingest",
    "overlap",
    "nn",
    "hvd",
    "ps",
    "serve",
    "candle",
    "core",
    "resilience",
    "sim",
    "analysis",
    "experiments",
)


def _modules() -> dict:
    """Dotted module name -> (path, is_package) for all of ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        out[".".join(parts)] = (path, is_package)
    return out


MODULES = _modules()


def _targets(module: str, is_package: bool, node) -> list:
    """The ``repro`` modules one import statement binds names from."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if node.level:
        base = module.split(".")[: len(module.split(".")) + is_package - node.level]
        source = ".".join(base + ([node.module] if node.module else []))
    else:
        source = node.module
    # ``from repro import hvd`` imports the module repro.hvd
    return [
        f"{source}.{a.name}" if f"{source}.{a.name}" in MODULES else source
        for a in node.names
    ]


def _imports() -> list:
    """(importer, imported, in_function) for every ``repro`` import."""
    found = []

    def walk(module, is_package, node, in_function):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target in _targets(module, is_package, child):
                    if target == "repro" or target.startswith("repro."):
                        found.append((module, target, nested))
            walk(module, is_package, child, nested)

    for module, (path, is_package) in MODULES.items():
        walk(module, is_package, ast.parse(path.read_text()), False)
    return found


IMPORTS = _imports()


def _package(module: str):
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else None


def test_layers_name_every_package():
    packages = {_package(m) for m in MODULES} - {None}
    assert packages == set(LAYERS)


def test_every_import_points_down():
    rank = {name: i for i, name in enumerate(LAYERS)}
    upward = [
        f"{src} -> {dst}"
        for src, dst, _ in IMPORTS
        if _package(src) is not None
        and rank[_package(dst)] > rank[_package(src)]
    ]
    assert upward == []


def test_root_package_imports_nothing():
    # ``import repro`` stays free of side effects on any layer
    assert [dst for src, dst, _ in IMPORTS if src == "repro"] == []


def test_no_function_level_imports():
    # with no cycle left to dodge, every repro import sits at the top
    assert [f"{src} -> {dst}" for src, dst, nested in IMPORTS if nested] == []


def test_no_module_getattr():
    lazy = [
        module
        for module, (path, _) in MODULES.items()
        if any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in ast.parse(path.read_text()).body
        )
    ]
    assert lazy == []


def _census() -> list:
    """(kind, unit, serves) for each row of ARCHITECTURE.md's census."""
    section = ARCHITECTURE.read_text().split("### Census", 1)[1].split("\n#", 1)[0]
    rows = [
        tuple(cell.strip().strip("`") for cell in line.strip().strip("|").split("|"))
        for line in section.splitlines()
        if line.startswith("|")
    ]
    return rows[2:]  # past the header and its rule


#: the packages the census also lists module by module: every package
#: with modules (``worker`` and ``options`` are single modules)
CENSUS_BY_MODULE = tuple(
    name for name in LAYERS if MODULES.get(f"repro.{name}", (None, False))[1]
)


def test_census_names_what_every_package_and_experiment_serves():
    rows = _census()
    assert {kind for kind, _, _ in rows} == {"package", "module", "experiment"}
    assert [unit for kind, unit, _ in rows if kind == "package"] == list(LAYERS)
    assert [unit for kind, unit, _ in rows if kind == "experiment"] == list_experiments()
    assert [unit for _, unit, serves in rows if not serves] == []


def test_census_names_every_module_of_the_packages_it_lists_by_module():
    # each module row sits under its package's row: packages in LAYERS
    # order, modules in path order within one
    modules = sorted(
        (
            module.split(".", 1)[1]
            for module, (_, is_package) in MODULES.items()
            if not is_package and _package(module) in CENSUS_BY_MODULE
        ),
        key=lambda unit: LAYERS.index(unit.split(".")[0]),
    )
    rows = _census()
    assert [unit for kind, unit, _ in rows if kind == "module"] == modules
    for (_, above, _), (kind, unit, _) in zip(rows, rows[1:]):
        if kind == "module":
            assert above.split(".")[0] == unit.split(".")[0], unit
