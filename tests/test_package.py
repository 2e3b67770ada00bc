"""The package's public surface."""

from __future__ import annotations

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
