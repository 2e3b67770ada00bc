"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import cdising

PUBLIC = {
    "__version__",
    "Schedule",
    "ChainConfig",
    "CouplingKind",
    "CouplingModel",
    "EvolutionResult",
    "IntegrationError",
    "evolve_chain",
    "coupling_exact",
    "coupling_set",
    "momentum_grid",
    "dense_evolve",
}

SOURCE = Path(cdising.__file__).resolve().parent

# public names kept without a caller in src: the benchmark tracer probes
# spin_oracle.multi_spin_term, so it stays until that probe is dropped
UNCALLED = {"spin_oracle.multi_spin_term"}


def test_public_names_are_exactly_the_api():
    assert len(cdising.__all__) == len(PUBLIC) and set(cdising.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(cdising, name) is not None


def test_every_benchmark_probe_site_resolves(monkeypatch):
    # the benchmark tracer wraps these names; a site that is gone turns its
    # per-layer metrics into null
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracing = importlib.import_module("tracing")
    missing = []
    for probe in tracing.PROBES:
        for site in probe.sites:
            module, attribute = site.rsplit(".", 1)
            if not hasattr(importlib.import_module(f"cdising.{module}"), attribute):
                missing.append(site)
    assert tracing.PROBES and missing == []


def test_no_scipy_module_loads_at_runtime():
    # the package integrates with its own DOP853, the spin oracle builds its
    # operators and ground states with numpy alone, and the CSV manifest
    # records the numpy version only, so a fresh interpreter that imports
    # the CLI, as every command does first, and then runs a chain, the
    # oracle, the verify battery and the CSV writer loads no scipy module;
    # the CLI's import loads no multiprocessing either
    code = """
import sys, tempfile
import cdising, cdising.cli
cdising.cli.build_parser()
loaded = lambda: sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(loaded())
# only --jobs > 1 starts worker processes, so it alone imports multiprocessing
print("multiprocessing" in sys.modules)
from cdising import ChainConfig, CouplingKind, CouplingModel, Schedule, dense_evolve, evolve_chain
from cdising import experiments
config = ChainConfig(4, Schedule(5.0, 0.0, 1.0), CouplingModel(CouplingKind.EXACT))
evolve_chain(config)
dense_evolve(config)
experiments.run_verification([4])
with tempfile.TemporaryDirectory() as directory:
    experiments.save_csv(directory + "/run.csv", "demo", {"n": 4}, ("x",), [(1.0,)])
print(loaded())
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.splitlines() == ["[]", "False", "[]"]


def test_every_public_name_is_used_or_exported():
    # a module-level public function, class or constant must be used by name
    # somewhere in src (strings and comments don't count) or be in __all__
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            # a read, not the assignment that defines the name
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused, kept = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") or name in used or name in cdising.__all__:
                    continue
                site = f"{module}.{name}"
                if site in UNCALLED:
                    kept.add(site)
                else:
                    unused.append(site)
    # an allowlist entry that is gone or has gained a caller is stale
    assert unused == [] and kept == UNCALLED


def test_no_module_imports_a_name_it_never_reads():
    # CI runs no linter, so this catches an import left behind when the code
    # that read it goes. __init__ imports to re-export, and __all__ reads
    # those names; a __future__ import is a directive, not a name.
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
        read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
        if path.stem == "__init__":
            read |= set(cdising.__all__)
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.stem}.{name}")
    assert unread == []
