"""Spin-space oracle for the counterdiabatic Ising chain.

Builds the chain Hamiltonian and the multi-spin counterdiabatic term
literally, as sums of Pauli strings, and evolves the Schrodinger equation
under them, to validate the free-fermion pipeline at small sizes. One
builder makes each operator in one pass: the bit arithmetic on basis
indices gives every string's entries, summed into one dense matrix.
Every term keeps the parity (an even number of down spins stays even)
and is summed over all n translations of the ring, so it also keeps the
momentum; the positive-parity ground state has momentum zero. So the
oracle works on the zero-momentum, positive-parity block, one normalized
translation orbit per basis state, with entries weighted by
sqrt(R_a / R_b) between orbits of sizes R_a and R_b (A. W. Sandvik, AIP
Conf. Proc. 1297, 135 (2010), sec. 4): dimension 20 at n = 8, 56 at
n = 10 and 180 at n = 12, against 2^(n-1) for the parity sector. The
evolution stacks the bonds on the weighted counterdiabatic terms, so each
RHS makes one dense product, and runs in the co-moving phase frame (see
dense_evolve), one global phase away from the Schrodinger equation. The
ground state and the ground level come from one numpy.linalg.eigh of the
real Hamiltonian block. The oracle shares no rule with the fermion
pipeline it checks: the longest range's half weight is spelled here as
well as in dynamics. The one full-space view, multi_spin_term, takes the
same builder with one state per orbit; it stays because the benchmark
tracer probes it. The orbit tables are built on the first call for each
n. The oracle needs numpy alone, and evolves with the package's DOP853.
"""

from __future__ import annotations

import functools

import numpy as np

from ._dop853 import solve_ivp
from .coefficients import coupling_set
from .dynamics import ChainConfig, IntegrationError

MAX_SPINS = 12


def _check_size(n: int) -> None:
    if n < 2 or n % 2 or n > MAX_SPINS:
        raise ValueError(f"spin count must be even, 2 <= n <= {MAX_SPINS}, got {n}")


@functools.cache
def _momentum_block(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(states, index, sizes) of the zero-momentum, positive-parity block.

    states are the orbit representatives (the smallest index of each
    translation orbit of even states), index maps each of the 2^n basis
    states to its representative's position in states (-1 for the odd
    states), and sizes are the orbit sizes of the representatives.
    """
    every = np.arange(2**n)
    rotations = np.array(
        [((every << shift) | (every >> (n - shift))) & (2**n - 1) for shift in range(n)]
    )
    # the orbit size is n over the number of translations that fix the state
    sizes = n // np.count_nonzero(rotations == every, axis=0)
    smallest = rotations.min(axis=0)
    even = np.bitwise_count(every) % 2 == 0
    states = np.unique(smallest[even])
    index = np.full(2**n, -1)
    index[even] = np.searchsorted(states, smallest[even])
    return states, index, sizes[states]


def _full_space(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # every basis state its own orbit: the 2^n space the literal operators act on
    every = np.arange(2**n)
    return every, every, np.ones(2**n, dtype=np.int64)


def _pauli_sum(
    n: int, strings: list[dict[int, str]], basis: tuple, weight: float = 1.0
) -> np.ndarray:
    """weight * the sum of Pauli strings {site: "i" | "x" | "y" | "z"}, dense on the basis.

    Site s is bit n - 1 - s of a basis index (site 0 is the leftmost
    Kronecker factor), and a set bit is a down spin. A string flips the
    x and y bits of |b>, takes a sign -1 from each set z or y bit, and a
    factor i from each y: P|b> = i^ny (-1)^popcount(b & (y|z)) |b ^ (x|y)>.
    On a basis (states, index, sizes) from _momentum_block or _full_space,
    a string takes the representative a to the orbit of index[a ^ flips],
    with weight sqrt(R_a / R_b); the sum is the block of the operator only
    when the strings are closed under translation. Every entry is summed
    into one matrix. The strings must keep the basis: an odd state is
    outside the momentum block.
    """
    states, index, sizes = basis

    def masks(letters: str) -> np.ndarray:
        return np.array(
            [sum(1 << (n - 1 - site) for site, letter in string.items() if letter in letters)
             for string in strings],
            dtype=np.int64,
        )

    rows = index[states ^ masks("xy")[:, None]]
    if np.any(rows < 0):
        raise ValueError("a Pauli string leaves the basis")
    signs = 1.0 - 2.0 * (np.bitwise_count(states & masks("yz")[:, None]) % 2)
    phases = weight * np.array([1j ** list(string.values()).count("y") for string in strings])
    values = phases[:, None] * signs * np.sqrt(sizes / sizes[rows])
    matrix = np.zeros((states.size,) * 2, dtype=complex)
    np.add.at(matrix, (rows, np.arange(states.size)), values)
    return matrix


def _bond_sum(n: int, basis: tuple) -> np.ndarray:
    # all n periodic bonds; for n = 2 both act on the same pair and both count
    return _pauli_sum(n, [{site: "x", (site + 1) % n: "x"} for site in range(n)], basis)


def _field_sum(n: int, basis: tuple) -> np.ndarray:
    return _pauli_sum(n, [{site: "z"} for site in range(n)], basis)


def _ising(n: int, g: float, basis: tuple) -> np.ndarray:
    return -(_bond_sum(n, basis) + g * _field_sum(n, basis))


def _multi_spin(n: int, m: int, basis: tuple, weight: float = 1.0) -> np.ndarray:
    strings = []
    for site in range(n):
        between = {(site + step) % n: "z" for step in range(1, m)}
        for left, right in (("x", "y"), ("y", "x")):
            strings.append({site: left, **between, (site + m) % n: right})
    return _pauli_sum(n, strings, basis, weight)


def _weighted_cd_terms(n: int, basis: tuple) -> list[np.ndarray]:
    # ranges 1 .. n/2; the longest range enters with half weight
    return [_multi_spin(n, m, basis, 0.5 if m == n // 2 else 1.0) for m in range(1, n // 2 + 1)]


def _ground_level(n: int, g: float) -> tuple[float, np.ndarray]:
    # the Hamiltonian block is real; numpy's eigh returns ascending levels
    eigenvalues, eigenvectors = np.linalg.eigh(_ising(n, g, _momentum_block(n)).real)
    return float(eigenvalues[0]), eigenvectors[:, 0]


def multi_spin_term(n: int, m: int) -> np.ndarray:
    """Range-m counterdiabatic interaction: x-(z string)-y plus y-(z string)-x.

    Sums over all n starting sites, with the z string spanning the m - 1
    sites strictly between the endpoints (periodic indexing). Returns the
    dense 2^n x 2^n matrix: 268 MB at n = 12.
    """
    _check_size(n)
    if not 1 <= m <= n // 2:
        raise ValueError(f"interaction range m={m} outside [1, {n // 2}]")
    return _multi_spin(n, m, _full_space(n))


def parity_ground_state(n: int, g: float) -> np.ndarray:
    """Lowest eigenvector of the chain Hamiltonian with parity +1, on all 2^n states.

    Diagonalizes inside the zero-momentum, positive-parity block, which
    holds the parity +1 ground state, selects the +1 member of any
    cross-sector degeneracy (for example at zero field) and keeps the
    returned vector deterministic; each orbit's amplitude is spread evenly
    over its states. The global phase is fixed by making the
    largest-magnitude amplitude real positive.
    """
    _check_size(n)
    _, index, sizes = _momentum_block(n)
    even = index >= 0
    state = np.zeros(2**n, dtype=complex)
    state[even] = (_ground_level(n, g)[1] / np.sqrt(sizes))[index[even]]
    anchor = state[np.argmax(np.abs(state))]
    state *= anchor.conjugate() / abs(anchor)
    return state / np.linalg.norm(state)


def sector_ground_energy(n: int, g: float) -> float:
    """Lowest eigenvalue in the parity +1 sector, by parity_ground_state's eigh."""
    _check_size(n)
    return _ground_level(n, g)[0]


def dense_evolve(config: ChainConfig) -> float:
    """Schrodinger evolution of config.n spins; squared overlap with the target state.

    Starts from the positive-parity ground state at the initial field,
    integrates under chain Hamiltonian plus counterdiabatic term with the
    config's ramp, coupling model and tolerances, restarting where the ramp
    crosses g = 1 as evolve_chain does, and projects onto the
    positive-parity ground state at the final field. The state never
    leaves the zero-momentum, positive-parity block, so only its orbit
    amplitudes are carried. The solver's clock reads the ramp and the
    couplings once per step, on the column of all its stage times.

    The equation integrated is i chi' = (H(t) - <chi|H(t)|chi>) chi, with
    H(t) the whole Hamiltonian. Its solution is chi = e^(i theta) psi, where
    psi solves i psi' = H psi and theta' = <psi|H|psi>, so |<target|chi>|^2
    is the Schrodinger overlap. In this frame the dominant amplitude barely
    turns, and the integrator does not lose norm following a rotation at
    rate E0(g) + g n, so the overlap keeps the accuracy of the tolerances.
    """
    n, schedule, model = config.n, config.schedule, config.coupling
    _check_size(n)
    block = _momentum_block(n)
    states, _, sizes = block
    dim = states.size
    z = _field_sum(n, block).diagonal().real
    # the bonds on top of the weighted CD terms: one product per RHS
    stacked = np.vstack([_bond_sum(n, block), *_weighted_cd_terms(n, block)])

    def clock(times):
        g, gp = schedule.ramp(times)
        return list(zip(g, gp, coupling_set(model, g[:, None], n)))

    def rhs(row, state):
        g, gp, couplings = row
        parts = (stacked @ state).reshape(-1, dim)
        h_state = -parts[0] - g * (z * state) - gp * (couplings @ parts[1:])
        # H - <psi|H|psi>: the co-moving phase frame, in which the dominant
        # amplitude barely turns
        return -1j * (h_state - np.vdot(state, h_state) * state)

    # an orbit's amplitude is its representative's times sqrt(orbit size)
    start = parity_ground_state(n, schedule.g0)[states] * np.sqrt(sizes)
    sol = solve_ivp(
        rhs, (0.0, schedule.duration), start, rtol=config.rel_tol, atol=config.abs_tol,
        breaks=schedule.crossings(), clock=clock,
    )
    if not sol.success:
        raise IntegrationError(f"dense run (n={n}, {model.label()}): {sol.message}")
    target = parity_ground_state(n, schedule.gf)[states] * np.sqrt(sizes)
    overlap = np.vdot(target, sol.y)
    return float(abs(overlap) ** 2)
