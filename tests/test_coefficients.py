"""Unit tests for the coupling-coefficient closed forms and their oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdising import CouplingKind, CouplingModel, coupling_exact, coupling_set, momentum_grid
from cdising.coefficients import (
    EXPANSION_MAX_ORDER,
    _check_chain_length,
    cos_multiple_expansion,
    cos_sum,
    cos_sum_exact,
    coupling_sum,
    coupling_thermo,
    coupling_truncated,
    identity_residuals,
    period_sign,
    power_sum,
    power_sum_exact,
    sin_product_expansion,
)


def test_momentum_grid_small_chains():
    assert np.allclose(momentum_grid(2), [math.pi / 2])
    assert np.allclose(momentum_grid(4), [math.pi / 4, 3 * math.pi / 4])
    assert np.allclose(momentum_grid(6), [math.pi / 6, math.pi / 2, 5 * math.pi / 6])


def test_momentum_grid_invariants():
    for n in (2, 8, 50, 200):
        ks = momentum_grid(n)
        assert len(ks) == n // 2
        assert np.all(np.diff(ks) > 0)
        assert ks[0] > 0 and ks[-1] < math.pi
        assert np.allclose(np.diff(ks), 2 * math.pi / n)


def test_momentum_grid_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        momentum_grid(3)
    with pytest.raises(ValueError):
        momentum_grid(0)


def test_coupling_exact_zero_range_vanishes():
    for g in (0.0, 0.3, 1.0, 2.0, 5.0):
        assert coupling_exact(0, g, 8) == 0.0


def test_coupling_exact_critical_field_is_one_eighth():
    assert coupling_exact(3, 1.0, 20) == 0.125
    assert coupling_exact(1, 1.0, 4) == 0.125
    assert coupling_exact(19, 1.0, 20) == 0.125


def test_coupling_exact_frozen_values():
    # two-site chain, g=2: (g^2+g^2)/(8 g^2 (1+g^2)) = 8/160
    assert math.isclose(coupling_exact(1, 2.0, 2), 0.05, rel_tol=1e-14)
    # (0.25+0.0625)/(8*0.25*1.0625) = 5/34
    assert math.isclose(coupling_exact(1, 0.5, 4), 5 / 34, rel_tol=1e-14)
    # (0.5+0.125)/(8*(1+0.5**6)) = 1/13
    assert math.isclose(coupling_exact(2, 0.5, 6), 1 / 13, rel_tol=1e-14)


def test_coupling_exact_zero_field_limit():
    # g -> 0: only the g**(m-1) and g**(n-m-1) exponents that hit zero survive
    assert coupling_exact(1, 0.0, 4) == 0.125
    assert coupling_exact(2, 0.0, 4) == 0.0
    assert coupling_exact(1, 0.0, 2) == 0.25


def test_coupling_exact_matches_direct_sum():
    for n in (2, 6, 12):
        for g in (0.0, 0.4, 1.0, 1.7, 4.0):
            for m in range(n):
                closed = coupling_exact(m, g, n)
                brute = coupling_sum(m, g, n)
                assert abs(closed - brute) <= 1e-13 * max(1.0, abs(brute))


def test_coupling_sum_zero_field():
    # (1/8)(sin^2(pi/4) + sin^2(3 pi/4)) = 1/8
    assert math.isclose(coupling_sum(1, 0.0, 4), 0.125, rel_tol=1e-14)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=st.floats(1e-6, 1e6), n=st.integers(1, 1000).map(lambda half: 2 * half))
@example(g=0.2, n=12)
@example(g=0.9, n=12)
@example(g=1.5, n=12)
@example(g=3.0, n=12)
def test_coupling_exact_duality(g, n):
    # g h(g) = h(1/g) / g for every range. A 1-ulp error in 1/g is raised to
    # powers up to n/2, so the bound grows with n; the floor covers results
    # that underflow to subnormals.
    ms = np.arange(n)
    lhs = g * coupling_exact(ms, g, n)
    rhs = coupling_exact(ms, 1.0 / g, n) / g
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    assert np.all(np.abs(lhs - rhs) <= 2 * n * 2.0**-52 * scale)


def test_coupling_exact_large_field_no_overflow():
    value = coupling_exact(3, 5.0, 200)
    assert math.isfinite(value)
    assert abs(value - coupling_sum(3, 5.0, 200)) <= 1e-13


def test_coupling_exact_scaling_form():
    # the closed form depends on m and n only through exp(-m/xi), exp(-n/xi)
    g, n = 0.6, 12
    xi = 1.0 / abs(math.log(g))  # the correlation length
    for m in (1, 3, 5):
        em = math.exp(-m / xi)
        en = math.exp(-n / xi)
        rewritten = (em / g + en / (em * g)) / (8.0 * (1.0 + en))
        assert math.isclose(coupling_exact(m, g, n), rewritten, rel_tol=1e-12)


def test_coupling_exact_validates_arguments():
    with pytest.raises(ValueError):
        coupling_exact(4, 1.0, 4)  # m = n is outside the proven range
    with pytest.raises(ValueError):
        coupling_exact(-1, 1.0, 4)
    with pytest.raises(ValueError):
        coupling_exact(1, -0.5, 4)
    with pytest.raises(ValueError):
        coupling_exact(1, 1.0, 5)


def test_sign_parity_under_field_negation():
    # h_m(-g) = (-1)**(m+1) h_m(g), f_m(-g) = (-1)**m f_m(g) on direct sums
    g, n = 0.7, 8
    for m in range(5):
        assert math.isclose(
            coupling_sum(m, -g, n), (-1) ** (m + 1) * coupling_sum(m, g, n),
            rel_tol=1e-13, abs_tol=1e-15,
        )
        assert math.isclose(
            cos_sum(m, -g, n), (-1) ** m * cos_sum(m, g, n),
            rel_tol=1e-13, abs_tol=1e-15,
        )


def test_cos_sum_exact_frozen_values():
    # (g^2-1)/(4(g^2+1)(g^2-1)) at g=2, n=2: 3/60
    assert math.isclose(cos_sum_exact(0, 2.0, 2), 0.05, rel_tol=1e-14)
    # (0.5**4-1)/(4*(0.5**4+1)*(0.25-1)) = 5/17
    assert math.isclose(cos_sum_exact(0, 0.5, 4), 5 / 17, rel_tol=1e-14)
    assert math.isclose(cos_sum_exact(1, 2.0, 2), 0.0, abs_tol=1e-15)
    assert cos_sum_exact(0, 0.0, 6) == 0.25
    assert cos_sum_exact(2, 0.0, 6) == 0.0


def test_cos_sum_exact_critical_limit():
    assert cos_sum_exact(0, 1.0, 2) == 0.125
    assert cos_sum_exact(1, 1.0, 4) == 0.125
    assert cos_sum_exact(2, 1.0, 4) == 0.0
    assert cos_sum_exact(3, 1.0, 4) == -0.125
    # approaching the critical field reproduces the hard-coded limit
    for g in (1.0 - 1e-9, 1.0 + 1e-9):
        assert abs(cos_sum_exact(1, g, 8) - 6 / 16) < 1e-6


def test_cos_sum_exact_matches_direct_sum():
    for n in (2, 6, 12):
        for g in (0.0, 0.4, 1.0, 1.7, 4.0):
            for m in range(n):
                closed = cos_sum_exact(m, g, n)
                brute = cos_sum(m, g, n)
                assert abs(closed - brute) <= 1e-13 * max(1.0, abs(brute))


def test_cos_sum_exact_large_field_no_overflow():
    value = cos_sum_exact(3, 5.0, 200)
    assert math.isfinite(value)
    assert abs(value - cos_sum(3, 5.0, 200)) <= 1e-13


def test_cos_sum_matches_half_chain_identity():
    # n=2, x=1 (g=e): the single-mode sum reduces to 1/(4(e^2+1))
    g = math.e
    assert math.isclose(cos_sum(0, g, 2), 1.0 / (4.0 * (g * g + 1.0)), rel_tol=1e-14)


def test_coupling_thermo_values():
    assert coupling_thermo(1, 0.0) == 0.125
    assert coupling_thermo(2, 0.5) == 0.0625
    assert coupling_thermo(5, 1.0) == 0.125
    assert coupling_thermo(3, 2.0) == 2.0 ** (-4) / 8.0
    assert coupling_thermo(1, 0.5) == 0.125


def test_coupling_thermo_branches_meet_at_critical_field():
    for m in (1, 2, 7):
        below = coupling_thermo(m, 1.0 - 1e-12)
        at = coupling_thermo(m, 1.0)
        assert at == 0.125
        assert abs(below - at) < 1e-10


def test_coupling_thermo_approaches_exact_at_large_n():
    # finite-size corrections decay as g**n
    for g in (0.3, 0.8, 1.6):
        for m in (1, 2, 3):
            assert math.isclose(
                coupling_exact(m, g, 200), coupling_thermo(m, g), rel_tol=1e-12
            )


def test_coupling_thermo_validates():
    with pytest.raises(ValueError):
        coupling_thermo(0, 0.5)
    with pytest.raises(ValueError):
        coupling_thermo(1, -1.0)


def test_coupling_truncated():
    assert coupling_truncated(2, 0.7, 8, 1) == 0.0
    assert coupling_truncated(1, 0.7, 8, 1) == coupling_exact(1, 0.7, 8)
    for m in range(1, 5):
        assert coupling_truncated(m, 0.7, 8, 4) == coupling_exact(m, 0.7, 8)
    with pytest.raises(ValueError):
        coupling_truncated(5, 0.7, 8, 2)  # m beyond n/2
    with pytest.raises(ValueError):
        coupling_truncated(1, 0.7, 8, 5)  # cap beyond n/2


def test_period_sign():
    assert period_sign(0, 4) == 1
    assert period_sign(4, 4) == -1
    assert period_sign(8, 4) == 1
    assert period_sign(2, 4) == 0
    assert period_sign(-4, 4) == -1
    assert period_sign(3, 4) == 0


def test_period_sign_matches_grid_average():
    for n in (4, 10):
        ks = momentum_grid(n)
        for m in (0, 1, n - 1, n, 2 * n, 3 * n):
            avg = float(np.sum(np.cos(m * ks))) / (n / 2)
            assert abs(avg - period_sign(m, n)) < 1e-12


def test_sin_product_expansion_small_orders():
    assert sin_product_expansion(0) == [0]
    assert sin_product_expansion(1) == [4, -4]
    assert sin_product_expansion(2) == [8, -24, 16]
    assert sin_product_expansion(3) == [12, -76, 128, -64]


def test_cos_multiple_expansion_small_orders():
    assert cos_multiple_expansion(0) == [1]
    assert cos_multiple_expansion(1) == [1, -2]
    assert cos_multiple_expansion(2) == [1, -8, 8]
    assert cos_multiple_expansion(3) == [1, -18, 48, -32]


def test_expansions_reconstruct_small_orders():
    for m in range(6):
        a = sin_product_expansion(m)
        b = cos_multiple_expansion(m)
        for k in (0.3, 1.1, 2.0, 2.9):
            s2 = math.sin(0.5 * k) ** 2
            sin_part = sum(c * s2 ** (s + 1) for s, c in enumerate(a))
            cos_part = sum(c * s2**s for s, c in enumerate(b))
            assert abs(sin_part - math.sin(k) * math.sin(m * k)) < 1e-10
            assert abs(cos_part - math.cos(m * k)) < 1e-10


def test_expansions_support_cap():
    assert len(sin_product_expansion(64)) == 65
    assert len(cos_multiple_expansion(64)) == 65
    with pytest.raises(ValueError):
        sin_product_expansion(65)
    with pytest.raises(ValueError):
        cos_multiple_expansion(65)
    with pytest.raises(ValueError):
        sin_product_expansion(-1)
    with pytest.raises(ValueError):
        cos_multiple_expansion(-1)


def test_power_sum_base_case():
    # order 0, x=1, n=2: single mode at k=pi/2, equals 2 tanh(1)/sinh(1)
    expected = 2.0 * math.tanh(1.0) / math.sinh(1.0)
    assert math.isclose(power_sum(0, 1.0, 2), expected, rel_tol=1e-14)
    assert math.isclose(power_sum_exact(0, 1.0, 2), expected, rel_tol=1e-14)


def test_power_sum_first_step_identity():
    for x in (0.3, -0.8, 2.0):
        for n in (4, 10):
            shift = math.sinh(0.5 * x) ** 2
            expected = n / 2.0 - shift * power_sum_exact(0, x, n)
            assert math.isclose(power_sum_exact(1, x, n), expected, rel_tol=1e-12)


def test_power_sum_exact_matches_brute():
    assert abs(power_sum_exact(2, 0.5, 8) - power_sum(2, 0.5, 8)) < 1e-12
    for x in (0.4, -1.1, 1.9):
        for n in (2, 8, 16):
            for order in range(n + 1):
                closed = power_sum_exact(order, x, n)
                brute = power_sum(order, x, n)
                assert abs(closed - brute) <= 1e-12 * max(1.0, abs(brute))


def test_power_sum_monotone_in_order():
    values = [power_sum(order, 0.7, 16) for order in range(11)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_power_sum_validates():
    with pytest.raises(ValueError):
        power_sum_exact(-1, 1.0, 4)
    with pytest.raises(ValueError):
        power_sum_exact(5, 1.0, 4)  # order beyond n
    with pytest.raises(ValueError):
        power_sum_exact(1, 0.0, 4)
    with pytest.raises(ValueError):
        power_sum(-1, 1.0, 4)


@pytest.mark.parametrize("x", [math.log(1e100), math.log(1e-100), 800.0])
def test_power_sum_exact_rejects_an_unrepresentable_power(x):
    # sinh(x/2)^8 overflows a float at |ln g| = 230; order 2 at n = 4 does not
    with pytest.raises(ValueError, match=r"sinh\(x/2\)\^8 overflows a float at field g = 10\^"):
        power_sum_exact(4, x, 4)
    if abs(x) < 300:
        assert math.isfinite(power_sum_exact(2, x, 4))


# The double-series route: a second evaluation of the couplings through the
# sin(k/2) expansions, kept here as an independent reference for the closed
# forms.


def _series_weight_update(c: float, s: int) -> float:
    # binom(2s,s)/2**(2s+1) stepped from s-1 to s.
    return c * (2 * s - 1) / (2 * s)


def coupling_series(m: int, g: float, n: int) -> float:
    """Coupling strength via the double-series route.

    Alternative evaluation that carries the chain-length dependence in
    closed form while keeping the range dependence as an explicit
    alternating series; must agree with coupling_exact up to accumulated
    rounding. Ill-conditioned near g = 1 (negative powers of (g-1)^2/4g),
    hence the stricter domain.

    Args:
        m: interaction range, 1 <= m <= min(n-1, 64).
        g: positive field, g != 1.
        n: even chain length.
    """
    _check_chain_length(n)
    if not 1 <= m <= min(n - 1, EXPANSION_MAX_ORDER):
        raise ValueError(f"range index m={m} outside [1, {min(n - 1, EXPANSION_MAX_ORDER)}]")
    if g <= 0 or g == 1.0:
        raise ValueError("field must be positive and away from the critical point")
    a = sin_product_expansion(m)
    y = (g - 1.0) ** 2 / (4.0 * g)
    if g > 1.0:
        gn = g ** (-n)
        edge = (1.0 + g * gn) / ((g + 1.0) * (1.0 + gn))
    else:
        edge = (g**n + g) / ((g + 1.0) * (g**n + 1.0))
    inner = edge
    c = 0.5
    ypow = 1.0
    yinv = 1.0 / y
    total = 0.0
    for j in range(m + 1):
        if j > 0:
            c = _series_weight_update(c, j)
            inner += c * (-yinv) ** j
            ypow *= y
        total += (-1) ** j * a[j] * ypow * inner
    return total / (8.0 * g)


def cos_sum_series(m: int, g: float, n: int) -> float:
    """Companion cosine sum via the double-series route (see coupling_series)."""
    _check_chain_length(n)
    if not 1 <= m <= min(n - 1, EXPANSION_MAX_ORDER):
        raise ValueError(f"range index m={m} outside [1, {min(n - 1, EXPANSION_MAX_ORDER)}]")
    if g <= 0 or g == 1.0:
        raise ValueError("field must be positive and away from the critical point")
    b = cos_multiple_expansion(m)
    y = (g - 1.0) ** 2 / (4.0 * g)
    if g > 1.0:
        gn = g ** (-n)
        edge = 2.0 * g / (g * g - 1.0) * (1.0 - gn) / (1.0 + gn)
    else:
        edge = 2.0 * g / (g * g - 1.0) * (g**n - 1.0) / (g**n + 1.0)
    c = 0.5
    ypow = 1.0
    yinv = 1.0 / y
    acc = 0.0
    total = 0.0
    for j in range(m + 1):
        if j > 0:
            # append the s = j-1 term of the subtracted inner sum
            acc += c * (-1) ** (j - 1) * yinv**j
            c = c * (2 * j - 1) / (2 * j)
            ypow *= y
        total += (-1) ** j * b[j] * ypow * (edge - acc)
    return total / (8.0 * g)


def test_coupling_series_frozen_value():
    assert math.isclose(coupling_series(1, 2.0, 2), 0.05, rel_tol=1e-13)


def test_cos_sum_series_frozen_value():
    assert abs(cos_sum_series(1, 2.0, 2)) < 1e-15


def test_series_routes_match_closed_forms():
    assert abs(coupling_series(2, 0.5, 8) - coupling_exact(2, 0.5, 8)) < 1e-10
    for g in (0.5, 2.0, 5.0):
        for n in (8, 12):
            for m in (1, 2, 3):
                h = coupling_exact(m, g, n)
                f = cos_sum_exact(m, g, n)
                assert abs(coupling_series(m, g, n) - h) <= 1e-9 * max(1.0, abs(h))
                assert abs(cos_sum_series(m, g, n) - f) <= 1e-9 * max(1.0, abs(f))


def test_series_routes_validate():
    with pytest.raises(ValueError):
        coupling_series(0, 2.0, 8)
    with pytest.raises(ValueError):
        coupling_series(8, 2.0, 8)  # m = n is out of range
    with pytest.raises(ValueError):
        coupling_series(1, 1.0, 8)
    with pytest.raises(ValueError):
        cos_sum_series(0, 2.0, 8)
    with pytest.raises(ValueError):
        cos_sum_series(1, -2.0, 8)


def test_identity_residuals_small():
    for g, n in ((2.0, 10), (0.5, 16), (1.0, 8)):
        residuals = identity_residuals(g, n)
        assert set(residuals) == {
            "cos_cos", "cos_sin2", "sin_sin_cos", "coupling_step", "aux_step",
        }
        assert all(value <= 1e-12 for value in residuals.values())


def test_identity_residuals_validates():
    with pytest.raises(ValueError):
        identity_residuals(0.0, 8)
    with pytest.raises(ValueError):
        identity_residuals(1.0, 7)


def test_coupling_set_exact_at_critical_field():
    values = coupling_set(CouplingModel(CouplingKind.EXACT), 1.0, 8)
    assert values.shape == (4,)
    assert np.all(values == 0.125)


def test_coupling_set_truncation_endpoints():
    exact = coupling_set(CouplingModel(CouplingKind.EXACT), 0.7, 8)
    full = coupling_set(CouplingModel(CouplingKind.TRUNCATED, 4), 0.7, 8)
    empty = coupling_set(CouplingModel(CouplingKind.TRUNCATED, 0), 0.7, 8)
    assert np.array_equal(full, exact)
    assert np.all(empty == 0.0)


def test_coupling_set_direct_and_thermo():
    direct = coupling_set(CouplingModel(CouplingKind.DIRECT_SUM), 0.7, 8)
    exact = coupling_set(CouplingModel(CouplingKind.EXACT), 0.7, 8)
    assert np.max(np.abs(direct - exact)) < 1e-13
    thermo = coupling_set(CouplingModel(CouplingKind.THERMODYNAMIC), 0.7, 8)
    assert np.allclose(thermo, [coupling_thermo(m, 0.7) for m in range(1, 5)])


@pytest.mark.parametrize("n", [2, 8, 20, 64])
def test_coupling_set_matches_scalar_couplings(n):
    ms = range(1, n // 2 + 1)
    families = [
        (CouplingModel(CouplingKind.EXACT), lambda m, g: coupling_exact(m, g, n)),
        (CouplingModel(CouplingKind.THERMODYNAMIC), coupling_thermo),
    ]
    families += [
        (CouplingModel(CouplingKind.TRUNCATED, cap), lambda m, g, cap=cap: coupling_truncated(m, g, n, cap))
        for cap in range(n // 2 + 1)
    ]
    for g in (0.0, 0.5, 1.0, 2.0, 5.0):
        for model, scalar in families:
            values = coupling_set(model, g, n)
            expected = np.array([scalar(m, g) for m in ms])
            assert values.shape == (n // 2,)
            if g in (0.0, 1.0):  # the 0**0 == 1 limit and the 1/8 critical value
                assert np.array_equal(values, expected)
            else:
                assert np.max(np.abs(values - expected)) <= 1e-15
        direct = coupling_set(CouplingModel(CouplingKind.DIRECT_SUM), g, n)
        assert np.max(np.abs(direct - [coupling_sum(m, g, n) for m in ms])) <= 1e-15
    with pytest.raises(ValueError):
        coupling_set(CouplingModel(CouplingKind.EXACT), -0.1, n)
    with pytest.raises(ValueError):
        coupling_set(CouplingModel(CouplingKind.TRUNCATED, n // 2 + 1), 0.5, n)
    # one field check ahead of the dispatch, the same for every family
    kinds = (CouplingKind.EXACT, CouplingKind.THERMODYNAMIC, CouplingKind.DIRECT_SUM)
    for model in [CouplingModel(kind) for kind in kinds] + [CouplingModel(CouplingKind.TRUNCATED, 1)]:
        for bad in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="field g must be finite and nonnegative"):
                coupling_set(model, bad, n)


def test_coupling_model_validation_and_labels():
    with pytest.raises(ValueError):
        CouplingModel(CouplingKind.EXACT, m_max=3)
    with pytest.raises(ValueError):
        CouplingModel(CouplingKind.TRUNCATED)
    assert CouplingModel(CouplingKind.EXACT).label() == "exact"
    assert CouplingModel(CouplingKind.TRUNCATED, 2).label() == "truncated(m_max=2)"


def test_coupling_maximum_sits_below_critical_field():
    grid = np.arange(1e-3, 1.2, 1e-3)
    for n, m in ((8, 2), (20, 5)):
        values = [coupling_exact(m, g, n) for g in grid]
        assert grid[int(np.argmax(values))] < 1.0


def _assert_within_ulps(values, expected, ulps=4):
    # numpy's array power and the scalar pow may round apart by an ulp or two
    expected = np.asarray(expected, dtype=float)
    assert values.shape == expected.shape
    assert np.all(np.abs(values - expected) <= ulps * np.spacing(np.abs(expected)))


@pytest.mark.parametrize("n", [2, 8, 200])
@pytest.mark.parametrize("g", [0.0, 0.3, 1.0, 1.7, 5.0])
def test_array_ranges_match_scalar_calls(n, g):
    # every range from the m = 0 edge to m = n - 1, one call against n calls
    ms = np.arange(n)
    half = np.arange(1, n // 2 + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 0**-1 at m = 0, g = 0 must not warn
        cases = [
            (coupling_exact(ms, g, n), [coupling_exact(m, g, n) for m in range(n)]),
            (coupling_sum(ms, g, n), [coupling_sum(m, g, n) for m in range(n)]),
            (cos_sum_exact(ms, g, n), [cos_sum_exact(m, g, n) for m in range(n)]),
            (cos_sum(ms, g, n), [cos_sum(m, g, n) for m in range(n)]),
            (coupling_thermo(ms[1:], g), [coupling_thermo(m, g) for m in range(1, n)]),
        ]
        for cap in (0, 1, n // 2):
            values = coupling_truncated(half, g, n, cap)
            cases.append((values, [coupling_truncated(m, g, n, cap) for m in range(1, n // 2 + 1)]))
        if g > 0:
            orders = np.arange(n + 1)
            x = math.log(g)
            cases.append((power_sum(orders, x, n), [power_sum(order, x, n) for order in range(n + 1)]))
        for values, expected in cases:
            _assert_within_ulps(values, expected)
    signs = np.arange(-n, 3 * n + 1)
    assert np.array_equal(period_sign(signs, n), [period_sign(int(m), n) for m in signs])


def test_array_ranges_are_validated_entry_by_entry():
    with pytest.raises(ValueError, match="range index m=8"):
        coupling_exact(np.array([0, 3, 8]), 0.5, 8)
    with pytest.raises(ValueError, match="range index m=-1"):
        cos_sum_exact(np.array([-1, 3]), 0.5, 8)
    with pytest.raises(ValueError, match="range index m=0"):
        coupling_thermo(np.arange(3), 0.5)
    with pytest.raises(ValueError, match="range index m=5"):
        coupling_truncated(np.arange(1, 6), 0.5, 8, 2)
    with pytest.raises(ValueError, match="order=-1"):
        power_sum(np.array([2, -1]), 0.5, 8)
