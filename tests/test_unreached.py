"""No public unit of ``repro`` that only tests reach.

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
"""

from __future__ import annotations

import ast
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


def _module(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
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
