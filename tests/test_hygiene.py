"""Repository hygiene: API surface, docstrings, registry/bench parity."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _walk_modules():
    prefix = repro.__name__ + "."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        if "__main__" in info.name:
            continue
        yield info.name


ALL_MODULES = sorted(_walk_modules())


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_every_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"
    assert len(module.__doc__.strip()) > 20, f"{module_name} docstring too thin"


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_public_all_entries_exist(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_every_subpackage_exported_from_repro():
    for sub in repro.__all__:
        importlib.import_module(f"repro.{sub}")


def test_every_experiment_has_a_bench_file():
    from repro.experiments import list_experiments

    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    files = set(os.listdir(bench_dir))
    # calibration's bench is bench_calibration; table/fig ids map by name
    naming = {
        "fig6": "bench_fig06.py",
        "fig7": "bench_fig07.py",
        "fig8": "bench_fig08.py",
        "fig9": "bench_fig09.py",
    }
    missing = []
    for eid in list_experiments():
        expected = naming.get(eid, f"bench_{eid}.py")
        if expected not in files:
            missing.append((eid, expected))
    assert not missing, f"experiments without benches: {missing}"


def test_every_example_is_runnable_python():
    """Examples must at least compile and carry a run-instruction docstring."""
    example_dir = os.path.join(REPO_ROOT, "examples")
    scripts = [f for f in os.listdir(example_dir) if f.endswith(".py")]
    assert len(scripts) >= 3, "the deliverable requires at least three examples"
    for script in scripts:
        path = os.path.join(example_dir, script)
        with open(path) as fh:
            source = fh.read()
        compile(source, path, "exec")
        assert '"""' in source.split("\n", 1)[0] + source, f"{script} lacks a docstring"
        assert "__main__" in source, f"{script} is not directly runnable"


def _run_example(script, *args, cwd):
    """Run ``examples/<script>`` in a fresh interpreter; returns its stdout."""
    src = os.path.join(REPO_ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_timeline_tracing_example_runs(tmp_path):
    trace = tmp_path / "trace.json"
    out = _run_example("timeline_tracing.py", str(trace), cwd=tmp_path)
    events = json.loads(trace.read_text())["traceEvents"]
    names = {e["name"] for e in events}
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in names:
            rows[parts[0]] = int(parts[2])
    # 4 ranks: one broadcast each, and one allreduce per step per rank
    assert rows["negotiate_broadcast"] == rows["mpi_broadcast"] == 4
    assert rows["nccl_allreduce"] == rows["negotiate_allreduce"] > 0
    assert rows["nccl_allreduce"] == sum(e["name"] == "nccl_allreduce" for e in events)
    assert "original" in out and "chunked" in out
    assert os.listdir(tmp_path) == ["trace.json"]


def test_checkpoint_restart_example_runs(tmp_path):
    out = _run_example("checkpoint_restart.py", cwd=tmp_path)
    assert "recovered: True" in out
    assert "bit-exact recovery: True" in out


def test_fault_injection_example_runs(tmp_path):
    out = _run_example("fault_injection.py", cwd=tmp_path)
    assert "recovered: True" in out


def test_strong_scaling_example_runs(tmp_path):
    out = _run_example("strong_scaling_study.py", cwd=tmp_path)
    workers = [
        int(line.split()[0])
        for line in out.splitlines()
        if line.split() and line.split()[0].isdigit()
    ]
    assert workers == [1, 6, 12, 24, 48, 96, 192, 384]
    assert "data loading dominates the runtime from" in out


def test_a_failing_property_reports_its_counter_example(tmp_path):
    """A failing Hypothesis property ends in pytest's FAILED line with
    its falsifying example, not an INTERNALERROR. Hypothesis's failure
    report imports libcst where it is installed, which raises a
    DeprecationWarning that ``filterwarnings`` must not make an error."""
    test = tmp_path / "test_failing_property.py"
    test.write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers(min_value=0))\n"
        "def test_negative(n):\n"
        "    assert n < 0\n"
    )
    config = os.path.join(REPO_ROOT, "pyproject.toml")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", config, str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED" in out and "Falsifying example" in out, out


def test_dependencies_are_the_third_party_packages_src_imports():
    """``pyproject.toml``'s ``dependencies`` name exactly the top-level
    non-stdlib packages that some module of ``src/repro`` imports."""
    imported = set()
    for path in Path(REPO_ROOT, "src", "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    text = Path(REPO_ROOT, "pyproject.toml").read_text()
    listed = ast.literal_eval(re.search(r"^dependencies = (\[.*\])$", text, re.M).group(1))
    assert {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in listed} == third_party


def test_documentation_files_exist_and_are_substantial():
    for fname, minimum in (
        ("README.md", 3000),
        ("DESIGN.md", 5000),
        ("EXPERIMENTS.md", 5000),
    ):
        path = os.path.join(REPO_ROOT, fname)
        assert os.path.exists(path), f"{fname} missing"
        assert os.path.getsize(path) > minimum, f"{fname} too small"


def test_experiments_md_covers_every_experiment():
    from repro.experiments import list_experiments

    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as fh:
        text = fh.read()
    # the paper's own tables/figures must all be recorded; ablations and
    # extension experiments may be regenerated separately
    for eid in list_experiments():
        is_paper = (
            eid.startswith(("table", "fig"))
            or eid in ("p1b3_opt", "calibration")
        )
        if not is_paper:
            continue
        assert f"### {eid}" in text, f"EXPERIMENTS.md lacks {eid}"
