"""Spin-space oracle for the counterdiabatic Ising chain.

Builds the chain Hamiltonian and the multi-spin counterdiabatic term
literally, as sums of Pauli strings, and evolves the Schrodinger equation
under them, to validate the free-fermion pipeline at small sizes. One
sparse builder makes each operator in one pass: the bit arithmetic on
basis indices gives every string's entries, which become one matrix.
Every term of the chain keeps the parity (an even number of down spins
stays even), so the oracle builds every operator on one basis, the
positive-parity sector of dimension 2^(n-1), where the ground states and
the evolution live. The evolution stacks the bonds on the weighted
counterdiabatic terms, so each RHS makes one sparse product, and runs in
the co-moving phase frame (see dense_evolve), one global phase away from
the Schrodinger equation. The ground state and the ground level come from
one LAPACK route, scipy.linalg.eigh restricted to the sector's lowest
eigenpair. The oracle shares no rule with the fermion pipeline it checks:
the longest range's half weight is spelled here as well as in dynamics.
The one full-space view, multi_spin_term, stays because the benchmark
tracer probes it.
scipy.sparse and scipy.linalg are imported by the functions that use
them, on their first call, so that importing the package does not pay
for them; the evolution uses the package's DOP853, like the chain's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._dop853 import solve_ivp
from .coefficients import coupling_set
from .dynamics import ChainConfig, IntegrationError

if TYPE_CHECKING:
    from scipy import sparse

MAX_SPINS = 10


def _check_size(n: int) -> None:
    if n < 2 or n % 2 or n > MAX_SPINS:
        raise ValueError(f"spin count must be even, 2 <= n <= {MAX_SPINS}, got {n}")


def _even_sector(n: int) -> np.ndarray:
    # positive-parity basis states have an even number of down spins
    basis = np.arange(2**n)
    return basis[np.bitwise_count(basis) % 2 == 0]


def _pauli_sum(
    n: int, strings: list[dict[int, str]], basis: np.ndarray, weight: float = 1.0
) -> sparse.csr_array:
    """weight * the sum of Pauli strings {site: "i" | "x" | "y" | "z"}, sparse on the basis.

    Site s is bit n - 1 - s of a basis index (site 0 is the leftmost
    Kronecker factor), and a set bit is a down spin. A string flips the
    x and y bits of |b>, takes a sign -1 from each set z or y bit, and a
    factor i from each y: P|b> = i^ny (-1)^popcount(b & (y|z)) |b ^ (x|y)>.
    Every string's entries go into one coordinate list, which becomes one
    CSR matrix with its duplicates summed and its zeros dropped. The basis
    must be closed under every flip.
    """
    from scipy import sparse

    def masks(letters: str) -> np.ndarray:
        return np.array(
            [sum(1 << (n - 1 - site) for site, letter in string.items() if letter in letters)
             for string in strings],
            dtype=np.int64,
        )

    position = np.empty(2**n, dtype=np.int64)
    position[basis] = np.arange(basis.size)
    rows = position[basis ^ masks("xy")[:, None]]
    signs = 1.0 - 2.0 * (np.bitwise_count(basis & masks("yz")[:, None]) % 2)
    phases = weight * np.array([1j ** list(string.values()).count("y") for string in strings])
    values = phases[:, None] * signs
    columns = np.broadcast_to(np.arange(basis.size), rows.shape)
    matrix = sparse.csr_array(
        (values.ravel(), (rows.ravel(), columns.ravel())), shape=(basis.size,) * 2
    )
    matrix.eliminate_zeros()
    return matrix


def _bond_sum(n: int, basis: np.ndarray) -> sparse.csr_array:
    # all n periodic bonds; for n = 2 both act on the same pair and both count
    return _pauli_sum(n, [{site: "x", (site + 1) % n: "x"} for site in range(n)], basis)


def _field_sum(n: int, basis: np.ndarray) -> sparse.csr_array:
    return _pauli_sum(n, [{site: "z"} for site in range(n)], basis)


def _ising(n: int, g: float, basis: np.ndarray) -> sparse.csr_array:
    return -(_bond_sum(n, basis) + g * _field_sum(n, basis))


def _real_block(n: int, g: float, basis: np.ndarray) -> np.ndarray:
    # the chain Hamiltonian has real entries; a real eigensolver is ~4x cheaper
    return _ising(n, g, basis).toarray().real


def _multi_spin(n: int, m: int, basis: np.ndarray, weight: float = 1.0) -> sparse.csr_array:
    strings = []
    for site in range(n):
        between = {(site + step) % n: "z" for step in range(1, m)}
        for left, right in (("x", "y"), ("y", "x")):
            strings.append({site: left, **between, (site + m) % n: right})
    return _pauli_sum(n, strings, basis, weight)


def _weighted_cd_terms(n: int, basis: np.ndarray) -> list[sparse.csr_array]:
    # ranges 1 .. n/2; the longest range enters with half weight
    return [_multi_spin(n, m, basis, 0.5 if m == n // 2 else 1.0) for m in range(1, n // 2 + 1)]


def multi_spin_term(n: int, m: int) -> np.ndarray:
    """Range-m counterdiabatic interaction: x-(z string)-y plus y-(z string)-x.

    Sums over all n starting sites, with the z string spanning the m - 1
    sites strictly between the endpoints (periodic indexing).
    """
    _check_size(n)
    if not 1 <= m <= n // 2:
        raise ValueError(f"interaction range m={m} outside [1, {n // 2}]")
    return _multi_spin(n, m, np.arange(2**n)).toarray()


def parity_ground_state(n: int, g: float) -> np.ndarray:
    """Lowest eigenvector of the chain Hamiltonian with parity +1.

    Diagonalizes inside the positive-parity sector, which both selects the
    +1 member of any cross-sector degeneracy (for example at zero field)
    and keeps the returned vector deterministic. The global phase is fixed
    by making the largest-magnitude amplitude real positive.
    """
    _check_size(n)
    from scipy import linalg

    sector = _even_sector(n)
    eigenvalues, eigenvectors = linalg.eigh(_real_block(n, g, sector), subset_by_index=[0, 0])
    state = np.zeros(2**n, dtype=complex)
    state[sector] = eigenvectors[:, 0]
    anchor = state[np.argmax(np.abs(state))]
    state *= anchor.conjugate() / abs(anchor)
    return state / np.linalg.norm(state)


def sector_ground_energy(n: int, g: float) -> float:
    """Lowest eigenvalue in the parity +1 sector, by parity_ground_state's eigh route."""
    _check_size(n)
    from scipy import linalg

    block = _real_block(n, g, _even_sector(n))
    return float(linalg.eigh(block, eigvals_only=True, subset_by_index=[0, 0])[0])


def dense_evolve(config: ChainConfig) -> float:
    """Schrodinger evolution of config.n spins; squared overlap with the target state.

    Starts from the positive-parity ground state at the initial field,
    integrates under chain Hamiltonian plus counterdiabatic term with the
    config's ramp, coupling model and tolerances, restarting where the ramp
    crosses g = 1 as evolve_chain does, and projects onto the
    positive-parity ground state at the final field. The state never
    leaves that sector, so only its 2^(n-1) amplitudes are carried.

    The equation integrated is i chi' = (H(t) - <chi|H(t)|chi>) chi, with
    H(t) the whole Hamiltonian. Its solution is chi = e^(i theta) psi, where
    psi solves i psi' = H psi and theta' = <psi|H|psi>, so |<target|chi>|^2
    is the Schrodinger overlap. In this frame the dominant amplitude barely
    turns, and the integrator does not lose norm following a rotation at
    rate E0(g) + g n, so the overlap keeps the accuracy of the tolerances.
    """
    n, schedule, model = config.n, config.schedule, config.coupling
    _check_size(n)
    from scipy import sparse

    sector = _even_sector(n)
    dim = sector.size
    z = _field_sum(n, sector).diagonal()
    # the bonds on top of the weighted CD terms: one product per RHS
    stacked = sparse.vstack([_bond_sum(n, sector), *_weighted_cd_terms(n, sector)], format="csr")
    ramp, duration = schedule.ramp, schedule.duration

    def rhs(t, state):
        g, gp = ramp(min(t, duration))
        parts = (stacked @ state).reshape(-1, dim)
        h_state = -parts[0] - g * (z * state) - gp * (coupling_set(model, g, n) @ parts[1:])
        # H - <psi|H|psi>: the co-moving phase frame, in which the dominant
        # amplitude barely turns
        return -1j * (h_state - np.vdot(state, h_state) * state)

    start = parity_ground_state(n, schedule.g0)[sector]
    sol = solve_ivp(
        rhs, (0.0, duration), start, rtol=config.rel_tol, atol=config.abs_tol,
        breaks=schedule.crossings(),
    )
    if not sol.success:
        raise IntegrationError(f"dense run (n={n}, {model.label()}): {sol.message}")
    target = parity_ground_state(n, schedule.gf)[sector]
    overlap = np.vdot(target, sol.y)
    return float(abs(overlap) ** 2)
