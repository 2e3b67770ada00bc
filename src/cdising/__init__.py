"""Exact counterdiabatic driving of the transverse-field Ising chain.

Closed-form coupling coefficients, free-fermion mode evolution, a dense
spin-basis oracle for small chains, and experiment drivers that write the
reference data sets. The package exports what configures and runs a chain
evolution and its oracle; everything else is imported from its own module.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .coefficients import CouplingKind, CouplingModel, coupling_exact, coupling_set, momentum_grid
from .dynamics import ChainConfig, EvolutionResult, IntegrationError, Schedule, evolve_chain
from .spin_oracle import dense_evolve

__all__ = [
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
]
