"""Unit tests for the dense spin-space oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdising import ChainConfig, CouplingKind, CouplingModel, Schedule, dense_evolve, evolve_chain
from cdising.coefficients import coupling_set
from cdising.dynamics import dispersion_ground_energy
from cdising.spin_oracle import multi_spin_term, parity_ground_state, sector_ground_energy
from cdising.spin_oracle import _bond_sum, _even_sector, _ising, _multi_spin, _pauli_sum
from cdising.spin_oracle import _weighted_cd_terms

EXACT = CouplingModel(CouplingKind.EXACT)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_chain(*factors):
    out = factors[0]
    for factor in factors[1:]:
        out = np.kron(out, factor)
    return out


def full(n):
    # every basis state: the full 2^n space the literal operators act on
    return np.arange(2**n)


def ising_full(n, g):
    return _ising(n, g, full(n)).toarray()


def cd_full(n, g, gdot):
    # the counterdiabatic term the oracle integrates, on the full space
    terms = _weighted_cd_terms(n, full(n))
    return (-gdot * sum(v * term for v, term in zip(coupling_set(EXACT, g, n), terms))).toarray()


def _pauli(n, string, basis):
    # one Pauli string: the builder's one-string case
    return _pauli_sum(n, [string], basis)


def test_pauli_string_single_site():
    assert np.array_equal(_pauli(2, {0: "x"}, full(2)).toarray(), np.kron(X, I2))
    assert np.array_equal(_pauli(2, {1: "z"}, full(2)).toarray(), np.kron(I2, Z))
    assert np.array_equal(_pauli(2, {}, full(2)).toarray(), np.eye(4))


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
    assert np.array_equal(built.toarray(), summed.toarray())
    # canonical CSR: sorted column indices, no duplicates, no stored zeros
    assert built.has_canonical_format and np.all(built.data != 0)
    assert built.nnz == np.count_nonzero(summed.toarray())


@pytest.mark.parametrize(
    "n, bonds, cd",
    [(8, 1024, [512, 512, 512, 256]), (10, 5120, [2560, 2560, 2560, 2560, 1280])],
)
def test_sector_operators_store_no_zeros(n, bonds, cd):
    # without dropping zeros the x-y and y-x strings would leave half of each
    # CD term stored as zeros, and every product would do twice the work
    sector = _even_sector(n)
    assert _bond_sum(n, sector).nnz == bonds
    assert [term.nnz for term in _weighted_cd_terms(n, sector)] == cd


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
    for n in (2, 4, 6, 8):
        for g in (0.0, 0.5, 1.0, 2.0):
            dense = sector_ground_energy(n, g)
            free = dispersion_ground_energy(n, g)
            assert abs(dense - free) <= 1e-10


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
        multi_spin_term(12, 1)


def test_parity_operator_diagonal():
    p = _pauli(2, {0: "z", 1: "z"}, full(2)).toarray()
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
        parity_ground_state(12, 1.0)
    with pytest.raises(ValueError):
        dense_evolve(ChainConfig(12, Schedule(5.0, 0.0, 1.0), EXACT))


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


def even_states(n):
    return [b for b in range(2**n) if bin(b).count("1") % 2 == 0]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sector_operators_match_the_literal_kron_construction(n):
    # n = 2 included: its two bonds, and its two range-1 strings per site, act on one pair
    sector = _even_sector(n)
    assert sector.tolist() == even_states(n)
    block = np.ix_(sector, sector)
    for g in (0.0, 0.7, 2.0):
        assert np.max(np.abs(_ising(n, g, sector).toarray() - literal_ising(n, g)[block])) <= 1e-15
    for m in range(1, n // 2 + 1):
        built = _multi_spin(n, m, sector).toarray()
        assert np.max(np.abs(built - literal_multi_spin(n, m)[block])) <= 1e-15
        assert np.max(np.abs(multi_spin_term(n, m) - literal_multi_spin(n, m))) <= 1e-15
    assert np.max(np.abs(ising_full(n, 0.7) - literal_ising(n, 0.7))) <= 1e-15
    assert np.array_equal(_pauli(n, {site: "z" for site in range(n)}, full(n)).toarray(), parity(n))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_literal_operators_commute_with_parity(n):
    # why the oracle may drop the odd sector: no term of the chain leaves it
    p = parity(n)
    for operator in [literal_ising(n, 1.3)] + [
        literal_multi_spin(n, m) for m in range(1, n // 2 + 1)
    ]:
        assert np.max(np.abs(operator @ p - p @ operator)) == 0.0


@pytest.mark.parametrize(
    "n, kind, t_final",
    [
        (8, CouplingKind.DIRECT_SUM, 10.0),
        (10, CouplingKind.EXACT, 1.0),
        (10, CouplingKind.THERMODYNAMIC, 10.0),
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
