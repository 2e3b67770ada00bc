"""Spin-space oracle for the counterdiabatic Ising chain.

Builds the chain Hamiltonian and the multi-spin counterdiabatic term
literally, as sums of Pauli strings, and evolves the Schrodinger equation
under them, to validate the free-fermion pipeline at small sizes. One
sparse builder makes every operator from bit arithmetic on basis indices.
Every term of the chain keeps the parity (an even number of down spins
stays even), so the oracle builds every operator on one basis, the
positive-parity sector of dimension 2^(n-1), where the ground states and
the evolution live. The one full-space view, multi_spin_term, stays
because the benchmark tracer probes it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .coefficients import coupling_set
from .dynamics import ChainConfig, IntegrationError

MAX_SPINS = 10


def _check_size(n: int) -> None:
    if n < 2 or n % 2 or n > MAX_SPINS:
        raise ValueError(f"spin count must be even, 2 <= n <= {MAX_SPINS}, got {n}")


def _even_sector(n: int) -> np.ndarray:
    # positive-parity basis states have an even number of down spins
    basis = np.arange(2**n)
    return basis[np.bitwise_count(basis) % 2 == 0]


def _pauli(n: int, string: dict[int, str], basis: np.ndarray) -> sparse.csr_array:
    """One Pauli string {site: "i" | "x" | "y" | "z"} as a sparse matrix on the basis states.

    Site s is bit n - 1 - s of a basis index (site 0 is the leftmost
    Kronecker factor), and a set bit is a down spin. The string flips the
    x and y bits of |b>, takes a sign -1 from each set z or y bit, and a
    factor i from each y: P|b> = i^ny (-1)^popcount(b & (y|z)) |b ^ (x|y)>.
    The basis must be closed under the flip.
    """

    def mask(letters: str) -> int:
        return sum(1 << (n - 1 - site) for site, letter in string.items() if letter in letters)

    position = np.empty(2**n, dtype=np.int64)
    position[basis] = np.arange(basis.size)
    rows = position[basis ^ mask("xy")]
    signs = 1.0 - 2.0 * (np.bitwise_count(basis & mask("yz")) % 2)
    values = 1j ** list(string.values()).count("y") * signs
    return sparse.csr_array((values, (rows, np.arange(basis.size))), shape=(basis.size,) * 2)


def _bond_sum(n: int, basis: np.ndarray) -> sparse.csr_array:
    # all n periodic bonds; for n = 2 both act on the same pair and both count
    return sum(_pauli(n, {site: "x", (site + 1) % n: "x"}, basis) for site in range(n))


def _field_sum(n: int, basis: np.ndarray) -> sparse.csr_array:
    return sum(_pauli(n, {site: "z"}, basis) for site in range(n))


def _ising(n: int, g: float, basis: np.ndarray) -> sparse.csr_array:
    return -(_bond_sum(n, basis) + g * _field_sum(n, basis))


def _real_block(n: int, g: float, basis: np.ndarray) -> np.ndarray:
    # the chain Hamiltonian has real entries; a real eigensolver is ~4x cheaper
    return _ising(n, g, basis).toarray().real


def _multi_spin(n: int, m: int, basis: np.ndarray) -> sparse.csr_array:
    strings = []
    for site in range(n):
        between = {(site + step) % n: "z" for step in range(1, m)}
        for left, right in (("x", "y"), ("y", "x")):
            strings.append(_pauli(n, {site: left, **between, (site + m) % n: right}, basis))
    return sum(strings)


def _weighted_cd_terms(n: int, basis: np.ndarray) -> list[sparse.csr_array]:
    # ranges 1 .. n/2; the longest range enters with half weight
    return [
        (0.5 if m == n // 2 else 1.0) * _multi_spin(n, m, basis) for m in range(1, n // 2 + 1)
    ]


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
    sector = _even_sector(n)
    eigenvalues, eigenvectors = np.linalg.eigh(_real_block(n, g, sector))
    state = np.zeros(2**n, dtype=complex)
    state[sector] = eigenvectors[:, 0]
    anchor = state[np.argmax(np.abs(state))]
    state *= anchor.conjugate() / abs(anchor)
    return state / np.linalg.norm(state)


def sector_ground_energy(n: int, g: float) -> float:
    """Lowest eigenvalue of the chain Hamiltonian in the parity +1 sector."""
    _check_size(n)
    return float(np.linalg.eigvalsh(_real_block(n, g, _even_sector(n)))[0])


def dense_evolve(config: ChainConfig) -> float:
    """Schrodinger evolution of config.n spins; squared overlap with the target state.

    Starts from the positive-parity ground state at the initial field,
    integrates under chain Hamiltonian plus counterdiabatic term with the
    config's ramp, coupling model and tolerances, and projects onto the
    positive-parity ground state at the final field. The state never
    leaves that sector, so only its 2^(n-1) amplitudes are carried. Only
    the final overlap is computed, so the config must not ask for a trace.
    """
    n, schedule, model = config.n, config.schedule, config.coupling
    _check_size(n)
    if config.trace_points:
        raise ValueError(f"dense_evolve computes no trace, got trace_points={config.trace_points}")
    sector = _even_sector(n)
    dim = sector.size
    hx = _bond_sum(n, sector)
    # H + g n I: a global phase apart from H, so the overlap is unchanged,
    # while the weight near the all-up state no longer turns at a rate ~ g n
    z_shifted = _field_sum(n, sector).diagonal() - n
    stacked = sparse.vstack(_weighted_cd_terms(n, sector), format="csr")
    ramp, duration = schedule.ramp, schedule.duration

    def rhs(t, state):
        g, gp = ramp(min(max(t, 0.0), duration))
        cd_state = coupling_set(model, g, n) @ (stacked @ state).reshape(-1, dim)
        return -1j * (-(hx @ state) - g * (z_shifted * state) - gp * cd_state)

    start = parity_ground_state(n, schedule.g0)[sector]
    sol = solve_ivp(
        rhs, (0.0, duration), start, method="DOP853", rtol=config.rel_tol, atol=config.abs_tol
    )
    if not sol.success:
        raise IntegrationError(f"dense run (n={n}, {model.label()}): {sol.message}")
    target = parity_ground_state(n, schedule.gf)[sector]
    overlap = np.vdot(target, sol.y[:, -1])
    return float(abs(overlap) ** 2)
