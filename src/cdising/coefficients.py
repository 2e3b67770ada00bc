"""Coupling coefficients of the counterdiabatic Ising chain.

Closed-form evaluation of the multi-spin coupling strengths that make a
transverse-field Ising chain follow its instantaneous eigenstates exactly,
together with the slower brute-force momentum sums they must reproduce, the
thermodynamic and truncated approximations, and the trigonometric-sum
machinery that the verification battery cross-checks them with. The
double-series route to the same couplings is a reference in the tests.

Every function here is a pure function of its arguments. Fields are
dimensionless; chains are periodic with even length; the momentum grid is the
positive half of the even-parity sector. Each coupling, grid sum and sign
takes its range m (power_sum its order) as a scalar or an array, the way the
drive kernels take k: one closed form per coefficient, which coupling_set
calls once on the array of ranges.
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


def _check_ranges(m, low: float, high: float, name: str = "range index m") -> None:
    # m is a scalar or an array; every entry must lie in [low, high]. On the
    # short arrays used here a list's min and max cost a fraction of numpy's.
    lo = hi = m
    if isinstance(m, np.ndarray):
        entries = m.ravel().tolist()
        lo, hi = min(entries), max(entries)
    if lo < low or hi > high:
        raise ValueError(f"{name}={lo if lo < low else hi} outside [{low}, {high}]")


def _check_field(g: float) -> float:
    if not 0 <= g < math.inf:
        raise ValueError(f"field g must be finite and nonnegative, got {g}")
    # a float base keeps an integer field off numpy's integer power
    return float(g)


def momentum_grid(n: int) -> np.ndarray:
    """Positive quasi-momenta pi/n, 3pi/n, ..., pi - pi/n of an even chain.

    Args:
        n: even chain length >= 2.

    Returns:
        Array of n/2 strictly increasing momenta in (0, pi), spaced 2*pi/n.
    """
    _check_chain_length(n)
    return np.pi * (2.0 * np.arange(n // 2) + 1.0) / n


def coupling_exact(m, g: float, n: int):
    """Closed-form coupling strength of the (m+1)-spin counterdiabatic term.

    Args:
        m: interaction range, 0 <= m <= n-1 (m = 0 is identically zero);
            a scalar or an array, like every range and order in this module.
        g: transverse field, finite and g >= 0.
        n: even chain length.

    Returns:
        The coupling, of the shape of m. It is evaluated at x = min(g, 1/g),
        where no power exceeds 1, and divided by g^2 above g = 1 (the
        field-inversion duality); 0**0 == 1 keeps the g -> 0+ limit.
    """
    _check_chain_length(n)
    # the closed form holds for 0 <= m <= n-1 only; m = n is provably wrong
    _check_ranges(m, 0, n - 1)
    g = _check_field(g)
    x = g if g <= 1.0 else 1.0 / g
    # abs() keeps m = 0 off 0**-1; the (m != 0) factor then zeroes it
    value = (x ** abs(m - 1) + x ** (n - m - 1)) / (8.0 * (1.0 + x**n)) / max(1.0, g * g)
    return value * (m != 0)


def coupling_sum(m, g: float, n: int):
    """Brute-force momentum sum behind coupling_exact.

    sin(mk) sin(k)/(g^2 - 2g cos k + 1) summed by numpy over the momentum
    grid, divided by 2n. Accepts any integer m and any real g; the
    denominator never vanishes on the grid.
    """
    ks = momentum_grid(n)
    weights = np.sin(ks) / (g * g - 2.0 * g * np.cos(ks) + 1.0)
    return (np.sin(np.multiply.outer(m, ks)) * weights).sum(axis=-1) / (2.0 * n)


def cos_sum_exact(m, g: float, n: int):
    """Closed form of the companion cosine sum (see cos_sum).

    The g = 1 value is the analytic limit (n - 2m)/16, hard-coded rather
    than nudged; g > 1 is rearranged to avoid overflowing g**n.
    """
    _check_chain_length(n)
    _check_ranges(m, 0, n - 1)
    g = _check_field(g)
    if g == 1.0:
        return (n - 2 * m) / 16.0
    if g > 1.0:
        # divide numerator and denominator by g**n so nothing overflows
        return (g ** (-m) - g ** (m - n)) / (4.0 * (1.0 + g ** (-n)) * (g * g - 1.0)) + 0.0
    return (g ** (n - m) - g**m) / (4.0 * (g**n + 1.0) * (g * g - 1.0)) + 0.0


def cos_sum(m, g: float, n: int):
    """Brute-force sum of cos(mk)/(g^2 - 2g cos k + 1) over the grid, / 2n (numpy)."""
    ks = momentum_grid(n)
    denom = g * g - 2.0 * g * np.cos(ks) + 1.0
    return (np.cos(np.multiply.outer(m, ks)) / denom).sum(axis=-1) / (2.0 * n)


def coupling_thermo(m, g: float):
    """Thermodynamic-limit approximation to coupling_exact.

    g**(m-1)/8 below the critical field, g**(-m-1)/8 at or above it; the
    two branches agree at g = 1. Uses the 0**0 == 1 convention at g = 0.
    """
    _check_ranges(m, 1, math.inf)
    g = _check_field(g)
    return (g ** (m - 1) if g < 1.0 else g ** (-m - 1)) / 8.0


def coupling_truncated(m, g: float, n: int, m_max: int):
    """Exact coupling for m <= m_max, zero beyond the truncation range."""
    _check_chain_length(n)
    _check_ranges(m, 1, n // 2)
    _check_ranges(m_max, 0, n // 2, "truncation range m_max")
    return coupling_exact(m, g, n) * (m <= m_max)


def period_sign(m, n: int):
    """Sign of the grid average of cos(mk): zero unless n divides m.

    Summing cos(mk) over the full momentum grid leaves (-1)**(m/n) times
    n/2 when m is a multiple of n and nothing otherwise; this returns the
    sign factor (0, +1 or -1), of the shape of m.
    """
    return (m % n == 0) * (1 - 2 * (m // n % 2))


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
    term = Fraction(1)
    out = [term]
    for s in range(1, m + 1):
        term *= Fraction(-4 * (m + s - 1) * (m - s + 1), (2 * s - 1) * (2 * s))
        out.append(term)
    assert all(t.denominator == 1 for t in out)
    return [int(t) for t in out]


def power_sum(order, x: float, n: int):
    """Brute-force sum of sin(k/2)**(2*order)/(sin(k/2)^2 + sinh(x/2)^2), by numpy."""
    _check_ranges(order, 0, math.inf, "order")
    s2 = np.sin(0.5 * momentum_grid(n)) ** 2
    return (s2 ** np.asarray(order)[..., None] / (s2 + math.sinh(0.5 * x) ** 2)).sum(axis=-1)


def power_sum_exact(order: int, x: float, n: int) -> float:
    """Closed form of power_sum, for 0 <= order <= n, x != 0 and a finite sinh(x/2)^(2 order).

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
    try:
        shift = math.sinh(0.5 * x) ** 2
        total = n * math.tanh(0.5 * n * x) / math.sinh(x) * (-shift) ** order
    except OverflowError:
        raise ValueError(
            f"sinh(x/2)^{2 * order} overflows a float at field g = 10^{x / math.log(10):.6g}"
        ) from None
    c = 0.5  # central-binomial weight binom(2s, s)/2**(2s+1), s = 0
    acc = 0.0
    for s in range(order):
        acc += c * (-shift) ** (order - s - 1)
        c = c * (2 * s + 1) / (2 * (s + 1))
    return total + n * acc


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
    # one row per range m, one column per momentum
    ms = np.arange(n - 1)
    cos_mk = np.cos(np.multiply.outer(ms, ks))
    sin_mk = np.sin(np.multiply.outer(ms, ks))
    h = coupling_exact(ms, g, n)
    f = cos_sum_exact(ms, g, n)
    d0 = period_sign(ms, n)
    dm1 = period_sign(ms - 1, n)
    dp1 = period_sign(ms + 1, n)
    delta = ms == 0
    sides = {
        "cos_cos": (
            (cos_mk * cos_k / denom).sum(axis=-1) / (2.0 * n),
            coef_cos * f - d0 / (8.0 * g),
        ),
        "cos_sin2": (
            (cos_mk * sin_k * sin_k / denom).sum(axis=-1) / (2.0 * n),
            -coef_sin2 * f + (g * g + 1.0) / (16.0 * g * g) * d0 + (dm1 + dp1) / (16.0 * g),
        ),
        "sin_sin_cos": (
            (sin_mk * sin_k * cos_k / denom).sum(axis=-1) / (2.0 * n),
            coef_cos * h - (dm1 - dp1) / (16.0 * g),
        ),
        "coupling_step": (
            coupling_sum(ms + 1, g, n),
            coef_cos * h - coef_sin2 * f + (g * g + 1.0) / (16.0 * g * g) * delta,
        ),
        "aux_step": (cos_sum(ms + 1, g, n), coef_cos * f - h - delta / (8.0 * g)),
    }
    worst = {}
    for name, (lhs, rhs) in sides.items():
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst[name] = float(np.max(np.abs(lhs - rhs) / scale))
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
                raise ValueError(f"truncated coupling needs m_max >= 0, got {self.m_max}")
        elif self.m_max is not None:
            raise ValueError(f"m_max is only valid with truncated coupling, not {self.kind.value}")

    def label(self) -> str:
        if self.kind is CouplingKind.TRUNCATED:
            return f"truncated(m_max={self.m_max})"
        return self.kind.value


def coupling_set(model: CouplingModel, g: float, n: int) -> np.ndarray:
    """Coupling strengths for ranges m = 1 .. n/2 under the given model.

    Args:
        model: coupling family (and truncation cap where applicable).
        g: field, finite and g >= 0 for every family.
        n: even chain length.

    Returns:
        Array of n/2 coupling values indexed by m - 1, from the family's
        own function called once on the array of ranges.
    """
    _check_chain_length(n)
    _check_field(g)
    ms = np.arange(1, n // 2 + 1)
    if model.kind is CouplingKind.DIRECT_SUM:
        return coupling_sum(ms, g, n)
    if model.kind is CouplingKind.THERMODYNAMIC:
        return coupling_thermo(ms, g)
    if model.kind is CouplingKind.TRUNCATED:
        return coupling_truncated(ms, g, n, model.m_max)
    return coupling_exact(ms, g, n)
