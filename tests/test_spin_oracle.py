"""Unit tests for the dense spin-space oracle.

The oracle works on the zero-momentum, positive-parity block. The
parity-sector oracle it replaced, sparse on all 2^(n-1) even states, is
kept below as an independent reference: the block's ground levels,
ground states and evolutions must equal the sector's.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse

from cdising import ChainConfig, CouplingKind, CouplingModel, Schedule, dense_evolve, evolve_chain
from cdising import IntegrationError
from cdising._dop853 import solve_ivp
from cdising.coefficients import coupling_set
from cdising.dynamics import dispersion_ground_energy
from cdising.spin_oracle import MAX_SPINS, multi_spin_term, parity_ground_state
from cdising.spin_oracle import sector_ground_energy
from cdising.spin_oracle import _full_space, _ising, _momentum_block, _multi_spin, _pauli_sum
from cdising.spin_oracle import _weighted_cd_terms

EXACT = CouplingModel(CouplingKind.EXACT)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# the two oracle runs of the benchmark's crosscheck workload
CROSSCHECK = [(8, CouplingKind.DIRECT_SUM, 10.0), (10, CouplingKind.EXACT, 1.0)]


def kron_chain(*factors):
    out = factors[0]
    for factor in factors[1:]:
        out = np.kron(out, factor)
    return out


def full(n):
    # every basis state its own orbit: the full 2^n space the literal operators act on
    return _full_space(n)


def ising_full(n, g):
    return _ising(n, g, full(n))


def cd_full(n, g, gdot):
    # the counterdiabatic term the oracle integrates, on the full space
    terms = _weighted_cd_terms(n, full(n))
    return -gdot * sum(v * term for v, term in zip(coupling_set(EXACT, g, n), terms))


def _pauli(n, string, basis):
    # one Pauli string: the builder's one-string case
    return _pauli_sum(n, [string], basis)


# The parity-sector reference: the oracle's sparse builder on the even
# states, its scipy.linalg ground level and its evolution of all 2^(n-1)
# sector amplitudes.


def even_sector(n):
    # positive-parity basis states have an even number of down spins
    basis = np.arange(2**n)
    return basis[np.bitwise_count(basis) % 2 == 0]


def sector_pauli_sum(n, strings, basis, weight=1.0):
    """weight * the sum of Pauli strings as one canonical CSR matrix on an array of states."""

    def masks(letters):
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


def sector_bond_sum(n, basis):
    return sector_pauli_sum(n, [{site: "x", (site + 1) % n: "x"} for site in range(n)], basis)


def sector_field_sum(n, basis):
    return sector_pauli_sum(n, [{site: "z"} for site in range(n)], basis)


def sector_ising(n, g, basis):
    return -(sector_bond_sum(n, basis) + g * sector_field_sum(n, basis))


def sector_multi_spin(n, m, basis, weight=1.0):
    strings = []
    for site in range(n):
        between = {(site + step) % n: "z" for step in range(1, m)}
        for left, right in (("x", "y"), ("y", "x")):
            strings.append({site: left, **between, (site + m) % n: right})
    return sector_pauli_sum(n, strings, basis, weight)


def sector_weighted_cd_terms(n, basis):
    return [
        sector_multi_spin(n, m, basis, 0.5 if m == n // 2 else 1.0) for m in range(1, n // 2 + 1)
    ]


def sector_ground(n, g):
    block = sector_ising(n, g, even_sector(n)).toarray().real
    values, vectors = linalg.eigh(block, subset_by_index=[0, 0])
    return float(values[0]), vectors[:, 0]


def sector_ground_state(n, g):
    # the ground state on all 2^n states, with the oracle's gauge
    state = np.zeros(2**n, dtype=complex)
    state[even_sector(n)] = sector_ground(n, g)[1]
    anchor = state[np.argmax(np.abs(state))]
    state *= anchor.conjugate() / abs(anchor)
    return state / np.linalg.norm(state)


def sector_evolve(config):
    # dense_evolve on the parity sector: same frame, ramp, restart and solver
    n, schedule, model = config.n, config.schedule, config.coupling
    sector = even_sector(n)
    z = sector_field_sum(n, sector).diagonal()
    stacked = sparse.vstack(
        [sector_bond_sum(n, sector), *sector_weighted_cd_terms(n, sector)], format="csr"
    )

    def rhs(t, state):
        g, gp = schedule.ramp(min(t, schedule.duration))
        parts = (stacked @ state).reshape(-1, sector.size)
        h_state = -parts[0] - g * (z * state) - gp * (coupling_set(model, g, n) @ parts[1:])
        return -1j * (h_state - np.vdot(state, h_state) * state)

    sol = solve_ivp(
        rhs, (0.0, schedule.duration), sector_ground_state(n, schedule.g0)[sector],
        rtol=config.rel_tol, atol=config.abs_tol, breaks=schedule.crossings(),
    )
    if not sol.success:
        raise IntegrationError(sol.message)
    return float(abs(np.vdot(sector_ground_state(n, schedule.gf)[sector], sol.y)) ** 2)


def translate(n, b):
    # site s -> s + 1: bit n - 1 - s moves to bit n - 2 - s, cyclically
    return (b >> 1) | ((b & 1) << (n - 1))


def orbit_isometry(n):
    """V: one normalized orbit state per column, in the order of the oracle's representatives.

    The orbits come from translating each representative one site at a
    time; every even state must lie in exactly one of them.
    """
    states = _momentum_block(n)[0]
    columns = np.zeros((2**n, states.size))
    for column, rep in enumerate(states.tolist()):
        orbit, b = {rep}, rep
        for _ in range(n):
            b = translate(n, b)
            orbit.add(b)
        assert rep == min(orbit)
        columns[sorted(orbit), column] = 1.0 / math.sqrt(len(orbit))
    even = np.bitwise_count(np.arange(2**n)) % 2 == 0
    assert np.array_equal(np.count_nonzero(columns, axis=1), even)
    return columns


def test_pauli_string_single_site():
    # the oracle's builder on the full space, and the reference's
    for pauli in (
        lambda n, string: _pauli(n, string, full(n)),
        lambda n, string: sector_pauli_sum(n, [string], np.arange(2**n)).toarray(),
    ):
        assert np.array_equal(pauli(2, {0: "x"}), np.kron(X, I2))
        assert np.array_equal(pauli(2, {1: "z"}), np.kron(I2, Z))
        assert np.array_equal(pauli(2, {}), np.eye(4))


@st.composite
def string_lists(draw):
    """(n, Pauli strings on n sites, weight), n <= 6."""
    n = draw(st.integers(1, 6))
    string = st.dictionaries(st.integers(0, n - 1), st.sampled_from("ixyz"), max_size=n)
    return n, draw(st.lists(string, min_size=1, max_size=12)), draw(st.sampled_from([1.0, 0.5, -2.0]))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(string_lists())
# x-y and y-x on one pair: half of their summed entries cancel to zero
@example((4, [{0: "x", 1: "y"}, {0: "y", 1: "x"}], 1.0))
@example((2, [{0: "x", 1: "x"}, {1: "x", 0: "x"}, {0: "z"}, {1: "z"}], 0.5))
def test_one_pass_builder_matches_the_sum_of_one_string_matrices(drawn):
    n, strings, weight = drawn
    built = _pauli_sum(n, strings, full(n), weight)
    summed = weight * sum(_pauli(n, string, full(n)) for string in strings)
    assert np.array_equal(built, summed)
    # the reference builder gives the same matrix, as canonical CSR: sorted
    # column indices, no duplicates, no stored zeros
    reference = sector_pauli_sum(n, strings, np.arange(2**n), weight)
    assert np.array_equal(reference.toarray(), built)
    assert reference.has_canonical_format and np.all(reference.data != 0)
    assert reference.nnz == np.count_nonzero(built)


def test_builder_rejects_a_string_that_leaves_the_block():
    with pytest.raises(ValueError, match="leaves the basis"):
        _pauli(4, {0: "x"}, _momentum_block(4))


@pytest.mark.parametrize(
    "n, bonds, cd",
    [(8, 1024, [512, 512, 512, 256]), (10, 5120, [2560, 2560, 2560, 2560, 1280])],
)
def test_sector_operators_store_no_zeros(n, bonds, cd):
    # the reference: without dropping zeros the x-y and y-x strings would
    # leave half of each CD term stored as zeros, and every product of the
    # sector evolution would do twice the work
    sector = even_sector(n)
    assert sector_bond_sum(n, sector).nnz == bonds
    assert [term.nnz for term in sector_weighted_cd_terms(n, sector)] == cd


def test_momentum_block_sizes():
    # one representative per translation orbit of the even states; the
    # orbit sizes add up to the 2^(n-1) states of the parity sector
    dims = {2: 2, 4: 4, 6: 8, 8: 20, 10: 56, 12: 180}
    for n, dim in dims.items():
        states, index, sizes = _momentum_block(n)
        assert states.size == dim and sizes.sum() == 2 ** (n - 1)
        assert np.array_equal(index[states], np.arange(dim))
        assert np.all(index[np.bitwise_count(np.arange(2**n)) % 2 == 1] == -1)


def test_two_site_hamiltonian_spectrum():
    # both periodic bonds act on the same pair, so the bond weight is 2
    h = ising_full(2, 0.0)
    assert np.allclose(h, -2.0 * np.kron(X, X))
    assert np.allclose(np.linalg.eigvalsh(h), [-2.0, -2.0, 2.0, 2.0])


def test_hamiltonians_hermitian():
    for n, g in ((2, 0.5), (4, 1.0), (6, 2.0)):
        h = ising_full(n, g)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14
    h1 = cd_full(6, 0.8, 1.3)
    assert np.max(np.abs(h1 - h1.conj().T)) <= 1e-14


def test_sector_energies_match_dispersion():
    for n in (2, 4, 6, 8, 10, 12):
        for g in (0.0, 0.5, 1.0, 2.0):
            dense = sector_ground_energy(n, g)
            free = dispersion_ground_energy(n, g)
            assert abs(dense - free) <= 1e-10


def test_momentum_block_ground_levels_equal_the_sector():
    # the parity +1 ground state has zero momentum, so the block holds the
    # sector's ground level; both also match the dispersion
    for n in (2, 4, 6, 8, 10):
        for g in (0.0, 0.5, 1.0, 2.0):
            level = sector_ground_energy(n, g)
            assert abs(level - sector_ground(n, g)[0]) <= 1e-12
            assert abs(sector_ground(n, g)[0] - dispersion_ground_energy(n, g)) <= 1e-12


@pytest.mark.parametrize("n, kind, t_final", CROSSCHECK)
def test_momentum_block_evolution_matches_the_sector(n, kind, t_final):
    config = ChainConfig(n, Schedule(5.0, 0.0, t_final), CouplingModel(kind))
    assert abs(dense_evolve(config) - sector_evolve(config)) <= 1e-10


def test_multi_spin_term_nearest_neighbor_by_hand():
    expected = (
        kron_chain(X, Y, I2, I2) + kron_chain(Y, X, I2, I2)
        + kron_chain(I2, X, Y, I2) + kron_chain(I2, Y, X, I2)
        + kron_chain(I2, I2, X, Y) + kron_chain(I2, I2, Y, X)
        + kron_chain(Y, I2, I2, X) + kron_chain(X, I2, I2, Y)
    )
    assert np.allclose(multi_spin_term(4, 1), expected)


def test_multi_spin_term_two_sites():
    expected = 2.0 * (np.kron(X, Y) + np.kron(Y, X))
    assert np.allclose(multi_spin_term(2, 1), expected)


def test_multi_spin_term_carries_z_string():
    # range 2 on four sites: endpoints two apart with one z between
    term = multi_spin_term(4, 2)
    by_hand = np.zeros((16, 16), dtype=complex)
    order = [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]
    for a, mid, b in order:
        for left, right in ((X, Y), (Y, X)):
            factors = [I2, I2, I2, I2]
            factors[a] = left
            factors[mid] = Z
            factors[b] = right
            by_hand += kron_chain(*factors)
    assert np.allclose(term, by_hand)


def test_multi_spin_term_validates():
    with pytest.raises(ValueError):
        multi_spin_term(4, 0)
    with pytest.raises(ValueError):
        multi_spin_term(4, 3)
    with pytest.raises(ValueError):
        multi_spin_term(MAX_SPINS + 2, 1)


def test_parity_operator_diagonal():
    p = _pauli(2, {0: "z", 1: "z"}, full(2))
    assert np.allclose(p, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_hamiltonians_commute_with_parity():
    rng = np.random.default_rng(7)
    p = parity(4)
    for _ in range(10):
        g = float(rng.uniform(0.0, 3.0))
        gdot = float(rng.uniform(-2.0, 2.0))
        h = ising_full(4, g) + cd_full(4, g, gdot)
        assert np.max(np.abs(h @ p - p @ h)) <= 1e-12


def test_parity_ground_state_properties():
    for n, g in ((2, 0.0), (4, 1.0), (6, 0.5)):
        state = parity_ground_state(n, g)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10
        assert np.allclose(parity(n) @ state, state, atol=1e-12)


def test_parity_ground_state_strong_field():
    state = parity_ground_state(2, 5.0)
    assert state[0].real > 0.99
    assert abs(state[0].imag) < 1e-14


def test_parity_ground_state_zero_field_is_uniform_even():
    state = parity_ground_state(4, 0.0)
    uniform = np.zeros(16, dtype=complex)
    for b in range(16):
        if bin(b).count("1") % 2 == 0:
            uniform[b] = 1.0 / (2.0 * math.sqrt(2.0))
    assert abs(abs(np.vdot(uniform, state)) - 1.0) <= 1e-12


def test_dense_evolution_matches_fermionic_pipeline():
    ramp = Schedule(5.0, 0.0, 1.0)
    for n in (2, 4):
        config = ChainConfig(n, ramp, EXACT)
        dense = dense_evolve(config)
        fermionic = evolve_chain(config).p_gs
        assert abs(dense - fermionic) <= 1e-8


def test_dense_exact_drive_prepares_ground_state():
    p = dense_evolve(ChainConfig(4, Schedule(5.0, 0.0, 10.0), EXACT))
    assert abs(p - 1.0) <= 1e-6


def test_dense_truncated_small_chain():
    ramp = Schedule(5.0, 0.0, 10.0)
    bare = CouplingModel(CouplingKind.TRUNCATED, 0)
    config = ChainConfig(2, ramp, bare)
    dense = dense_evolve(config)
    fermionic = evolve_chain(config).p_gs
    assert abs(dense - fermionic) <= 1e-8


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_dense_evolve_rejects_bad_tolerances(name, bad):
    # the config carries the check, so no dense run starts with a bad tolerance
    with pytest.raises(ValueError, match=name):
        dense_evolve(ChainConfig(4, Schedule(5.0, 0.0, 1.0), EXACT, **{name: bad}))


def test_dense_size_validation():
    with pytest.raises(ValueError):
        sector_ground_energy(3, 1.0)
    with pytest.raises(ValueError):
        parity_ground_state(MAX_SPINS + 2, 1.0)
    with pytest.raises(ValueError):
        dense_evolve(ChainConfig(MAX_SPINS + 2, Schedule(5.0, 0.0, 1.0), EXACT))


def literal(n, factors):
    return kron_chain(*[factors.get(site, I2) for site in range(n)])


def parity(n):
    return literal(n, {site: Z for site in range(n)})


def literal_ising(n, g):
    return -sum(
        literal(n, {site: X, (site + 1) % n: X}) + g * literal(n, {site: Z}) for site in range(n)
    )


def literal_multi_spin(n, m):
    term = 0
    for site in range(n):
        between = {(site + step) % n: Z for step in range(1, m)}
        term = term + literal(n, {site: X, **between, (site + m) % n: Y})
        term = term + literal(n, {site: Y, **between, (site + m) % n: X})
    return term


def literal_translation(n):
    shift = np.zeros((2**n, 2**n))
    for b in range(2**n):
        shift[translate(n, b), b] = 1.0
    return shift


def even_states(n):
    return [b for b in range(2**n) if bin(b).count("1") % 2 == 0]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sector_operators_match_the_literal_kron_construction(n):
    # the reference and the full-space views; n = 2 included: its two bonds,
    # and its two range-1 strings per site, act on one pair
    sector = even_sector(n)
    assert sector.tolist() == even_states(n)
    block = np.ix_(sector, sector)
    for g in (0.0, 0.7, 2.0):
        built = sector_ising(n, g, sector).toarray()
        assert np.max(np.abs(built - literal_ising(n, g)[block])) <= 1e-15
    for m in range(1, n // 2 + 1):
        built = sector_multi_spin(n, m, sector).toarray()
        assert np.max(np.abs(built - literal_multi_spin(n, m)[block])) <= 1e-15
        assert np.max(np.abs(multi_spin_term(n, m) - literal_multi_spin(n, m))) <= 1e-15
    assert np.max(np.abs(ising_full(n, 0.7) - literal_ising(n, 0.7))) <= 1e-15
    assert np.array_equal(_pauli(n, {site: "z" for site in range(n)}, full(n)), parity(n))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_block_operators_are_the_literal_ones_on_the_orbit_states(n):
    # V^T P V, with V the normalized orbit states and P the literal operator
    v = orbit_isometry(n)
    basis = _momentum_block(n)
    for g in (0.0, 0.7, 2.0):
        assert np.max(np.abs(_ising(n, g, basis) - v.T @ literal_ising(n, g) @ v)) <= 1e-13
    for m in range(1, n // 2 + 1):
        built = _multi_spin(n, m, basis)
        assert np.max(np.abs(built - v.T @ literal_multi_spin(n, m) @ v)) <= 1e-13


@pytest.mark.parametrize("n", [2, 4, 6])
def test_literal_operators_commute_with_parity(n):
    # why the oracle may drop the odd sector: no term of the chain leaves it
    p = parity(n)
    for operator in [literal_ising(n, 1.3)] + [
        literal_multi_spin(n, m) for m in range(1, n // 2 + 1)
    ]:
        assert np.max(np.abs(operator @ p - p @ operator)) == 0.0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_literal_operators_commute_with_translation(n):
    # why the oracle may keep only the zero-momentum block: every term of the
    # chain is summed over all translations; the literal sums round in site
    # order, so a translated entry may differ in its last bit
    shift = literal_translation(n)
    for operator in [literal_ising(n, 1.3)] + [
        literal_multi_spin(n, m) for m in range(1, n // 2 + 1)
    ]:
        assert np.max(np.abs(operator @ shift - shift @ operator)) <= 1e-14


@st.composite
def translation_closed_sets(draw):
    """(n, every translation of a few parity-keeping Pauli strings, weight), n <= 8."""
    n = draw(st.integers(1, 8))
    string = st.dictionaries(st.integers(0, n - 1), st.sampled_from("ixyz"), max_size=n).filter(
        lambda string: sum(letter in "xy" for letter in string.values()) % 2 == 0
    )
    drawn = draw(st.lists(string, min_size=1, max_size=3))
    closed = [
        {(site + shift) % n: letter for site, letter in string.items()}
        for string in drawn
        for shift in range(n)
    ]
    return n, closed, draw(st.sampled_from([1.0, 0.5, -2.0]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(translation_closed_sets())
@example((8, [{site: "z"} for site in range(8)], 1.0))
def test_block_builder_is_the_literal_operator_on_the_orbit_states(drawn):
    n, strings, weight = drawn
    pauli = {"i": I2, "x": X, "y": Y, "z": Z}
    literal_sum = weight * sum(
        literal(n, {site: pauli[letter] for site, letter in string.items()}) for string in strings
    )
    v = orbit_isometry(n)
    built = _pauli_sum(n, strings, _momentum_block(n), weight)
    assert np.max(np.abs(built - v.T @ literal_sum @ v)) <= 1e-12
    assert np.max(np.abs(built - built.conj().T)) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 4, 6, 8]), st.floats(0.0, 3.0))
@example(8, 1.0)
@example(4, 0.0)
def test_parity_ground_state_is_the_sector_eigenvector(n, g):
    # expanded from the block, with the gauge fixed, the state is the
    # reference's up to rounding
    assert np.max(np.abs(parity_ground_state(n, g) - sector_ground_state(n, g))) <= 1e-12


@pytest.mark.parametrize(
    "n, kind, t_final",
    [
        (8, CouplingKind.DIRECT_SUM, 10.0),
        (10, CouplingKind.EXACT, 1.0),
        (10, CouplingKind.THERMODYNAMIC, 10.0),
        (12, CouplingKind.EXACT, 1.0),
    ],
)
def test_dense_evolve_default_tolerance_is_converged(n, kind, t_final):
    ramp = Schedule(5.0, 0.0, t_final)
    model = CouplingModel(kind)
    default = dense_evolve(ChainConfig(n, ramp, model))
    tight = dense_evolve(ChainConfig(n, ramp, model, rel_tol=1e-13, abs_tol=1e-15))
    assert abs(default - tight) <= 1e-10
    # in the co-moving phase frame the oracle keeps its norm, so at default
    # tolerances it agrees with a tight fermion run to the chain's own error
    reference = evolve_chain(ChainConfig(n, ramp, model, rel_tol=1e-13, abs_tol=1e-15)).p_gs
    assert abs(default - reference) <= 2e-11
