"""The package's public surface."""

from __future__ import annotations

import importlib
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
