"""No public unit and no module of ``repro`` that only tests reach.

A module-level public function or class stays in ``src/repro`` only
while something other than ``tests/`` uses it: another part of the
package, a script under ``benchmarks/`` or an example. The scan is by
name over the AST, so it errs towards keeping a unit:

- a reference is a name, an attribute, an imported name or a
  ``"module:function"`` string (the experiment registry's form)
  anywhere in ``src/repro``, ``benchmarks`` or ``examples``;
- what a unit's own body says about itself does not count, nor does a
  package ``__init__`` re-exporting it (its imports and ``__all__``);
- a registry entry or a caller in the unit's own module counts: the
  unit is then reached through that code.

:data:`KEPT` names the units kept on purpose, each under its reason.

A module stays only while ``src/repro`` or ``benchmarks/`` imports it;
an example or a test does not count (:func:`unimported`):

- an import names the module, or names something its package's
  ``__init__`` re-exports from it (the re-export alone does not count);
- a ``"repro.x.y"`` or ``"repro.x.y:fn"`` string names it (the
  experiment registry's form);
- a ``__main__`` module is a ``python -m`` entry point, and so reached.

:data:`KEPT_MODULES` names the modules kept on purpose, each under its
reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
READERS = ("src/repro", "benchmarks", "examples")

#: the units kept on purpose although only tests reach them
KEPT = {
    # the finite-difference gradient oracle every backward pass is checked against
    "repro.nn.gradcheck.numeric_param_grads",
    "repro.nn.gradcheck.numeric_input_grad",
    "repro.nn.gradcheck.max_relative_error",
    # the Keras callback the training and checkpoint tests use as a spy
    "repro.nn.callbacks.LambdaCallback",
    # Observability: a dumped Chrome trace reads back into a Tracer
    "repro.telemetry.exporters.read_chrome_trace",
    # §2.3's epoch partition as the paper prints it; the plans run its
    # balanced form, comp_epochs_balanced
    "repro.core.epochs.comp_epochs",
}


def _module(path: Path, src: Path = SRC) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _names(node, skip_imports: bool) -> set:
    """Every name ``node`` refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and not skip_imports:
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            module, _, attr = sub.value.partition(":")
            if attr.isidentifier() and module.startswith("repro."):
                out.add(attr)
    return out


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def unreached() -> list:
    """Dotted names of the public units nothing but tests refers to."""
    units, seen = {}, set()
    for reader in READERS:
        for path in sorted((ROOT / reader).rglob("*.py")):
            tree = ast.parse(path.read_text())
            in_src = SRC in path.parents
            package_init = in_src and path.name == "__init__.py"
            for node in tree.body:
                if _is_all(node):
                    continue
                if (
                    in_src
                    and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                ):
                    units[f"{_module(path)}.{node.name}"] = node.name
                    seen |= _names(node, package_init) - {node.name}
                else:
                    seen |= _names(node, package_init)
    return sorted(unit for unit, name in units.items() if name not in seen)


UNREACHED = unreached()


def test_every_public_unit_is_reached_or_kept():
    assert [unit for unit in UNREACHED if unit not in KEPT] == []


def test_every_kept_unit_still_exists_unreached():
    # a kept unit that is gone, or is now reached, leaves the list
    assert sorted(KEPT) == [unit for unit in UNREACHED if unit in KEPT]


# -- modules -------------------------------------------------------------

#: where an import keeps a module (examples and tests do not)
MODULE_READERS = ("src/repro", "benchmarks")

#: the modules kept on purpose although only tests and examples import them
KEPT_MODULES = {
    # §4's diagnosis: cProfile names read_csv as the hot spot, which
    # examples/find_the_bottleneck.py re-enacts
    "repro.analysis.profiling",
    # the finite-difference gradient oracle every backward pass is checked against
    "repro.nn.gradcheck",
    # §7's restart as a run: crash, retry, bit-exact resume
    # (examples/checkpoint_restart.py, examples/fault_injection.py)
    "repro.resilience.recovery",
}

_DOTTED = re.compile(r"repro(\.\w+)+")


def _tree_modules(src: Path) -> dict:
    """Dotted name -> is_package, for every module under ``src/repro``."""
    return {
        _module(path, src): path.name == "__init__.py"
        for path in sorted((src / "repro").rglob("*.py"))
    }


def _import_source(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The dotted module a ``from ... import`` statement reads from."""
    if not node.level:
        return node.module
    base = module.split(".")[: len(module.split(".")) + is_package - node.level]
    return ".".join(base + ([node.module] if node.module else []))


def unimported(root: Path = ROOT) -> list:
    """Dotted names of the non-package modules under ``root/src/repro``
    that nothing in ``root``'s :data:`MODULE_READERS` imports."""
    src = root / "src"
    modules = _tree_modules(src)
    readers = []  # (module name, or None outside src; is a package init; tree)
    for reader in MODULE_READERS:
        for path in sorted((root / reader).rglob("*.py")):
            name = _module(path, src) if src in path.parents else None
            readers.append((name, path.name == "__init__.py", ast.parse(path.read_text())))

    exports: dict = {}  # package -> {name: (the module it comes from, its name there)}
    for name, is_init, tree in readers:
        if not is_init:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _import_source(name, True, node)
                if source.startswith(name + "."):
                    for alias in node.names:
                        exports.setdefault(name, {})[alias.asname or alias.name] = (
                            source, alias.name,
                        )

    reached = {m for m in modules if m.endswith(".__main__")}

    def reach(module: str, name=None) -> None:
        """Mark ``module``; for a package, the module ``name`` comes from."""
        if not modules.get(module, False):
            reached.add(module)
        elif f"{module}.{name}" in modules:
            reach(f"{module}.{name}")
        elif name in exports.get(module, {}):
            reach(*exports[module][name])

    for name, is_init, tree in readers:
        whole = []  # modules imported whole: the file's names say what it uses
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (name or not node.level):
                source = _import_source(name or "", is_init, node)
                if is_init and source.startswith(name + "."):
                    continue  # a re-export: counted where the name is used
                for alias in node.names:
                    if f"{source}.{alias.name}" in modules:
                        whole.append(f"{source}.{alias.name}")
                    elif source in modules:
                        reach(source, alias.name)
            elif isinstance(node, ast.Import):
                whole += [alias.name for alias in node.names if alias.name in modules]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                dotted = node.value.partition(":")[0]
                if _DOTTED.fullmatch(dotted):
                    reach(dotted)
        used = _names(tree, skip_imports=False) if whole else set()
        for module in whole:
            reach(module)
            for used_name in used:
                reach(module, used_name)
    return sorted(m for m, is_package in modules.items() if not is_package and m not in reached)


def stale_kept(kept, unreached_names) -> list:
    """The kept names that are gone, or that something now reaches."""
    return sorted(set(kept) - set(unreached_names))


UNIMPORTED = unimported()


def test_every_module_is_imported_or_kept():
    assert [m for m in UNIMPORTED if m not in KEPT_MODULES] == []


def test_every_kept_module_still_exists_unimported():
    # a kept module that is gone, or is now imported, leaves the list
    assert stale_kept(KEPT_MODULES, UNIMPORTED) == []


def _write(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_module_check_reports_what_only_tests_and_examples_import(tmp_path):
    root = _write(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.used import used_fn\n"
            "from repro.pkg.reexported import only_reexported\n"
        ),
        "src/repro/pkg/__main__.py": "",
        "src/repro/pkg/used.py": "def used_fn(): pass\n",
        "src/repro/pkg/reexported.py": "def only_reexported(): pass\n",
        "src/repro/pkg/by_registry.py": "def run(): pass\n",
        "src/repro/pkg/by_test.py": "",
        "src/repro/pkg/by_example.py": "",
        "src/repro/pkg/consumer.py": (
            "from repro.pkg import used_fn\n"
            "REGISTRY = {'x': 'repro.pkg.by_registry:run'}\n"
        ),
        "benchmarks/bench_pkg.py": "from repro.pkg import consumer\n",
        "tests/test_pkg.py": "from repro.pkg import by_test, only_reexported\n",
        "examples/demo.py": "import repro.pkg.by_example\n",
    })
    assert unimported(root) == [
        "repro.pkg.by_example", "repro.pkg.by_test", "repro.pkg.reexported",
    ]


def test_a_kept_module_that_is_gone_or_imported_is_stale(tmp_path):
    root = _write(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/a.py": "",
        "src/repro/b.py": "",
        "benchmarks/bench_b.py": "from repro import b\n",
    })
    assert unimported(root) == ["repro.a"]
    assert stale_kept({"repro.a"}, unimported(root)) == []
    assert stale_kept({"repro.a", "repro.b", "repro.gone"}, unimported(root)) == [
        "repro.b", "repro.gone",
    ]
