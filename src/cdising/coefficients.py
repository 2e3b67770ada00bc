"""Coupling coefficients of the counterdiabatic Ising chain.

Closed-form evaluation of the multi-spin coupling strengths that make a
transverse-field Ising chain follow its instantaneous eigenstates exactly,
together with the slower brute-force momentum sums they must reproduce, the
thermodynamic and truncated approximations, and the trigonometric-sum
machinery needed to cross-check all of them.

Every function here is a pure function of its arguments. Fields are
dimensionless; chains are periodic with even length; the momentum grid is the
positive half of the even-parity sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

# Expansion coefficients grow factorially with the order; the contract caps
# the supported order rather than promising arbitrary m.
EXPANSION_MAX_ORDER = 64


def _check_chain_length(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"chain length must be even and >= 2, got {n}")


def _check_range_index(m: int, n: int) -> None:
    # The closed forms hold for 0 <= m <= n-1 only; m = n is provably wrong.
    if not 0 <= m <= n - 1:
        raise ValueError(f"range index m={m} outside [0, {n - 1}]")


def momentum_grid(n: int) -> np.ndarray:
    """Positive quasi-momenta pi/n, 3pi/n, ..., pi - pi/n of an even chain.

    Args:
        n: even chain length >= 2.

    Returns:
        Array of n/2 strictly increasing momenta in (0, pi), spaced 2*pi/n.
    """
    _check_chain_length(n)
    return np.pi * (2.0 * np.arange(n // 2) + 1.0) / n


def coupling_exact(m: int, g: float, n: int) -> float:
    """Closed-form coupling strength of the (m+1)-spin counterdiabatic term.

    Args:
        m: interaction range, 0 <= m <= n-1 (m = 0 is identically zero).
        g: transverse field, g >= 0.
        n: even chain length.

    Returns:
        The coupling, evaluated through the cancellation-free rearrangement
        for g <= 1 and through the field-inversion duality for g > 1.
    """
    _check_chain_length(n)
    _check_range_index(m, n)
    if g < 0:
        raise ValueError("field must be nonnegative")
    if m == 0:
        return 0.0
    if g == 1.0:
        return 0.125
    if g > 1.0:
        return coupling_exact(m, 1.0 / g, n) / (g * g)
    # 0 <= g < 1: all exponents nonnegative, no overflow, no 0/0 at g = 0
    # (0**0 == 1.0 keeps the g -> 0+ limit).
    return (g ** (m - 1) + g ** (n - m - 1)) / (8.0 * (1.0 + g**n))


def coupling_sum(m: int, g: float, n: int) -> float:
    """Brute-force momentum sum behind coupling_exact.

    Plain left-to-right accumulation of sin(k)sin(mk)/(g^2 - 2g cos k + 1)
    over the momentum grid, divided by 2n. Accepts any integer m and any
    real g; the denominator never vanishes on the grid.
    """
    total = 0.0
    for k in momentum_grid(n):
        total += math.sin(k) * math.sin(m * k) / (g * g - 2.0 * g * math.cos(k) + 1.0)
    return total / (2.0 * n)


def cos_sum_exact(m: int, g: float, n: int) -> float:
    """Closed form of the companion cosine sum (see cos_sum).

    The g = 1 value is the analytic limit (n - 2m)/16, hard-coded rather
    than nudged; g > 1 is rearranged to avoid overflowing g**n.
    """
    _check_chain_length(n)
    _check_range_index(m, n)
    if g < 0:
        raise ValueError("field must be nonnegative")
    if g == 1.0:
        return (n - 2 * m) / 16.0
    if g > 1.0:
        # divide numerator and denominator by g**n so nothing overflows
        return (g ** (-m) - g ** (m - n)) / (4.0 * (1.0 + g ** (-n)) * (g * g - 1.0)) + 0.0
    return (g ** (n - m) - g**m) / (4.0 * (g**n + 1.0) * (g * g - 1.0)) + 0.0


def cos_sum(m: int, g: float, n: int) -> float:
    """Brute-force sum of cos(mk)/(g^2 - 2g cos k + 1) over the grid, / 2n."""
    total = 0.0
    for k in momentum_grid(n):
        total += math.cos(m * k) / (g * g - 2.0 * g * math.cos(k) + 1.0)
    return total / (2.0 * n)


def coupling_thermo(m: int, g: float) -> float:
    """Thermodynamic-limit approximation to coupling_exact.

    g**(m-1)/8 below the critical field, g**(-m-1)/8 at or above it; the
    two branches agree at g = 1. Uses the 0**0 == 1 convention at g = 0.
    """
    if m < 1:
        raise ValueError(f"range index m={m} must be >= 1")
    if g < 0:
        raise ValueError("field must be nonnegative")
    if g < 1.0:
        return g ** (m - 1) / 8.0
    return g ** (-m - 1) / 8.0


def coupling_truncated(m: int, g: float, n: int, m_max: int) -> float:
    """Exact coupling for m <= m_max, zero beyond the truncation range."""
    _check_chain_length(n)
    if not 1 <= m <= n // 2:
        raise ValueError(f"range index m={m} outside [1, {n // 2}]")
    if not 0 <= m_max <= n // 2:
        raise ValueError(f"truncation range {m_max} outside [0, {n // 2}]")
    if m > m_max:
        return 0.0
    return coupling_exact(m, g, n)


def correlation_length(g: float) -> float:
    """Correlation length 1/|ln g| of the infinite chain.

    Raises ZeroDivisionError at the critical field g = 1, where the length
    diverges, and ValueError for nonpositive fields.
    """
    if g <= 0:
        raise ValueError("field must be positive")
    if g == 1.0:
        raise ZeroDivisionError("correlation length diverges at g = 1")
    return 1.0 / abs(math.log(g))


def period_sign(m: int, n: int) -> int:
    """Sign of the grid average of cos(mk): zero unless n divides m.

    Summing cos(mk) over the full momentum grid leaves (-1)**(m/n) times
    n/2 when m is a multiple of n and nothing otherwise; this returns the
    sign factor (0, +1 or -1).
    """
    return 0 if m % n else (-1) ** abs(m // n)


def sin_product_expansion(m: int) -> list[int]:
    """Integer coefficients of sin(k)sin(mk) in powers of sin(k/2).

    sin(k)sin(mk) = sum_s coeffs[s] * sin(k/2)**(2s+2) with s = 0..m. The
    coefficients are exact integers, built by multiplicative ratio updates
    in rational arithmetic (no raw factorials).
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    if m > EXPANSION_MAX_ORDER:
        raise ValueError(f"order {m} unsupported (max {EXPANSION_MAX_ORDER})")
    if m == 0:
        return [0]
    term = Fraction(4 * m)
    out = [term]
    for s in range(1, m + 1):
        term *= Fraction(-4 * (m + s - 1) * (m - s + 1), (2 * s) * (2 * s + 1))
        term *= Fraction(2 * m * m + s, 2 * m * m + s - 1)
        out.append(term)
    assert all(t.denominator == 1 for t in out)
    return [int(t) for t in out]


def cos_multiple_expansion(m: int) -> list[int]:
    """Integer coefficients of cos(mk) in powers of sin(k/2).

    cos(mk) = sum_s coeffs[s] * sin(k/2)**(2s) with s = 0..m.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    if m > EXPANSION_MAX_ORDER:
        raise ValueError(f"order {m} unsupported (max {EXPANSION_MAX_ORDER})")
    if m == 0:
        return [1]
    term = Fraction(1)
    out = [term]
    for s in range(1, m + 1):
        term *= Fraction(-4 * (m + s - 1) * (m - s + 1), (2 * s - 1) * (2 * s))
        out.append(term)
    assert all(t.denominator == 1 for t in out)
    return [int(t) for t in out]


def power_sum(order: int, x: float, n: int) -> float:
    """Brute-force sum of sin(k/2)**(2*order)/(sin(k/2)^2 + sinh(x/2)^2)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    _check_chain_length(n)
    shift = math.sinh(0.5 * x) ** 2
    total = 0.0
    for k in momentum_grid(n):
        s2 = math.sin(0.5 * k) ** 2
        total += s2**order / (s2 + shift)
    return total


def power_sum_exact(order: int, x: float, n: int) -> float:
    """Closed form of power_sum, valid for 0 <= order <= n and x != 0.

    Args:
        order: half the power of sin(k/2) in the numerator.
        x: log-field, x = ln g, nonzero.
        n: even chain length.
    """
    _check_chain_length(n)
    if not 0 <= order <= n:
        raise ValueError(f"order {order} outside [0, {n}]")
    if x == 0:
        raise ValueError("log-field must be nonzero")
    shift = math.sinh(0.5 * x) ** 2
    base = n * math.tanh(0.5 * n * x) / math.sinh(x)
    total = base * (-shift) ** order
    c = 0.5  # central-binomial weight binom(2s, s)/2**(2s+1), s = 0
    acc = 0.0
    for s in range(order):
        acc += c * (-shift) ** (order - s - 1)
        c = c * (2 * s + 1) / (2 * (s + 1))
    return total + n * acc


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


def identity_residuals(g: float, n: int) -> dict[str, float]:
    """Residuals of the trigonometric-sum identities behind the closed forms.

    For every range index m in [0, n-2], evaluates both sides of the three
    reduction identities (cosine-cosine, cosine-sine-squared and
    sine-sine-cosine numerators) and of the two-term recurrence stepping
    the closed forms from m to m+1. Left-hand sides come from direct grid
    sums, right-hand sides from the closed forms.

    Args:
        g: positive field.
        n: even chain length.

    Returns:
        Mapping identity name -> maximum residual over m, where each
        residual is |lhs - rhs| / max(1, |lhs|, |rhs|) (absolute below
        unit scale, relative above it).
    """
    _check_chain_length(n)
    if g <= 0:
        raise ValueError("field must be positive")
    ks = momentum_grid(n)
    cos_k = np.cos(ks)
    sin_k = np.sin(ks)
    denom = g * g - 2.0 * g * cos_k + 1.0
    coef_cos = (g * g + 1.0) / (2.0 * g)
    coef_sin2 = ((g * g - 1.0) / (2.0 * g)) ** 2
    worst = {
        "cos_cos": 0.0,
        "cos_sin2": 0.0,
        "sin_sin_cos": 0.0,
        "coupling_step": 0.0,
        "aux_step": 0.0,
    }

    def update(name: str, lhs: float, rhs: float) -> None:
        residual = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        if residual > worst[name]:
            worst[name] = residual

    for m in range(n - 1):
        cos_mk = np.cos(m * ks)
        sin_mk = np.sin(m * ks)
        h = coupling_exact(m, g, n)
        f = cos_sum_exact(m, g, n)
        d0 = period_sign(m, n)
        dm1 = period_sign(m - 1, n)
        dp1 = period_sign(m + 1, n)

        lhs = float(np.sum(cos_mk * cos_k / denom)) / (2.0 * n)
        update("cos_cos", lhs, coef_cos * f - d0 / (8.0 * g))

        lhs = float(np.sum(cos_mk * sin_k * sin_k / denom)) / (2.0 * n)
        rhs = -coef_sin2 * f + (g * g + 1.0) / (16.0 * g * g) * d0 + (dm1 + dp1) / (16.0 * g)
        update("cos_sin2", lhs, rhs)

        lhs = float(np.sum(sin_mk * sin_k * cos_k / denom)) / (2.0 * n)
        update("sin_sin_cos", lhs, coef_cos * h - (dm1 - dp1) / (16.0 * g))

        delta = 1.0 if m == 0 else 0.0
        rhs = coef_cos * h - coef_sin2 * f + (g * g + 1.0) / (16.0 * g * g) * delta
        update("coupling_step", coupling_sum(m + 1, g, n), rhs)

        rhs = coef_cos * f - h - delta / (8.0 * g)
        update("aux_step", cos_sum(m + 1, g, n), rhs)
    return worst


class CouplingKind(Enum):
    """Which family of coupling coefficients drives the evolution."""

    EXACT = "exact"
    DIRECT_SUM = "direct"
    THERMODYNAMIC = "thermo"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class CouplingModel:
    """A coupling family plus, for the truncated one, its range cap."""

    kind: CouplingKind
    m_max: int | None = None

    def __post_init__(self) -> None:
        if self.kind is CouplingKind.TRUNCATED:
            if self.m_max is None or self.m_max < 0:
                raise ValueError("truncated model needs a nonnegative m_max")
        elif self.m_max is not None:
            raise ValueError(f"m_max is only meaningful for truncated models, got {self.kind}")

    def label(self) -> str:
        if self.kind is CouplingKind.TRUNCATED:
            return f"truncated(m_max={self.m_max})"
        return self.kind.value


def coupling_set(model: CouplingModel, g: float, n: int) -> np.ndarray:
    """Coupling strengths for ranges m = 1 .. n/2 under the given model.

    Args:
        model: coupling family (and truncation cap where applicable).
        g: field, g >= 0.
        n: even chain length.

    Returns:
        Array of n/2 coupling values indexed by m - 1.
    """
    _check_chain_length(n)
    ms = np.arange(1, n // 2 + 1)
    if model.kind is CouplingKind.DIRECT_SUM:
        # coupling_sum for every m at once
        ks = momentum_grid(n)
        weights = np.sin(ks) / (g * g - 2.0 * g * np.cos(ks) + 1.0)
        return (np.sin(np.multiply.outer(ms, ks)) * weights).sum(axis=-1) / (2.0 * n)
    if g < 0:
        raise ValueError("field must be nonnegative")
    g = float(g)
    if model.kind is CouplingKind.THERMODYNAMIC:
        # coupling_thermo for every m at once
        return (g ** (ms - 1) if g < 1.0 else g ** (-ms - 1)) / 8.0
    # coupling_exact for every m at once, through its duality above g = 1
    # (at g = 1 every term is exact and gives 1/8)
    x = g if g <= 1.0 else 1.0 / g
    values = (x ** (ms - 1) + x ** (n - ms - 1)) / (8.0 * (1.0 + x**n)) / max(1.0, g * g)
    if model.kind is CouplingKind.TRUNCATED:
        assert model.m_max is not None
        if model.m_max > n // 2:
            raise ValueError(f"truncation range {model.m_max} outside [0, {n // 2}]")
        values[ms > model.m_max] = 0.0
    return values
