"""Coupling coefficients of the counterdiabatic Ising chain.

Closed-form evaluation of the multi-spin coupling strengths that make a
transverse-field Ising chain follow its instantaneous eigenstates exactly,
together with the slower brute-force momentum sums they must reproduce, the
thermodynamic and truncated approximations, and the trigonometric-sum
machinery that the verification battery cross-checks them with. The
double-series route to the same couplings is a reference in the tests.

The mode denominator has one spelling, _denominator, which dynamics
imports, so grid sums and modes round it alike. Every function here is a
pure function of its arguments. Fields are dimensionless; chains are
periodic with even length; the momentum grid is the positive half of the
even-parity sector. Each coupling, grid sum and sign takes its range m
(power_sum its order) as an integer or an integer array, the way the drive
kernels take k: one closed form per coefficient, which coupling_set calls
once on the array of ranges. The coupling families, the cosine sums and
identity_residuals take a field or a column of fields, as the drive
kernels do, so the oracle's clock asks for the couplings of all stage
times of a step in one call, and verify takes all its fields at once for
each chain length. coupling_set is a plain
dispatch: it checks the field, n and the model, then calls the family's
function on m = 1 .. n/2, with no cache of its own. The grid sums
read their sin(mk), cos(mk) and sin^2(k/2)^p factors from one table per
chain length, built on first use and kept for the most recent n only; they
take ranges and orders 0 .. n, the table's rows, and raise outside them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

# Expansion coefficients grow factorially with the order; the contract caps
# the supported order rather than promising arbitrary m.
EXPANSION_MAX_ORDER = 64


def _check_chain_length(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"chain length must be even and >= 2, got {n}")


def _check_integer(m, name: str) -> None:
    # ranges and orders index table rows: an int, a numpy integer or an
    # integer array, and no float, however whole
    if not (isinstance(m, (int, np.integer)) or isinstance(m, np.ndarray) and m.dtype.kind in "iu"):
        raise ValueError(f"{name} must be an int or an integer array, got {m!r}")


def _check_ranges(m, low: float, high: float, name: str = "range index m") -> None:
    # m is an integer or an integer array; every entry must lie in [low, high].
    # On the short arrays used here a list's min and max cost a fraction of
    # numpy's: 1.5 against 6.1 us on 4 ranges, and a scalar compare 0.15
    # against 7.7 us.
    _check_integer(m, name)
    lo = hi = m
    if isinstance(m, np.ndarray):
        entries = m.ravel().tolist()
        lo, hi = min(entries, default=low), max(entries, default=high)
    if lo < low or hi > high:
        raise ValueError(f"{name}={lo if lo < low else hi} outside [{low}, {high}]")


def _check_field(g):
    # g is a field or a column of fields; a column names its first bad field
    if np.ndim(g):
        g = np.asarray(g, dtype=float)
        bad = [field for field in g.ravel().tolist() if not 0 <= field < math.inf]
        if bad:
            _check_field(bad[0])
        return g
    if not 0 <= g < math.inf:
        raise ValueError(f"field g must be finite and nonnegative, got {g}")
    # a float base keeps an integer field off numpy's integer power
    return float(g)


def _per_field(f: Callable, g):
    # f, a float or a tuple of floats, at a scalar field, or at each field of
    # a column as a column (one per tuple entry). f gets Python floats, so
    # its integer powers are libm's pow, as in a scalar call; numpy's array
    # power rounds some fields differently.
    if np.ndim(g) == 0:
        return f(g)
    return np.array([f(x) for x in g[:, 0].tolist()]).T[..., None]


def _denominator(g: float, cos_k):
    # g^2 - 2g cos k + 1, a quarter of the squared mode gap, in the one rounding
    # order that the chain (RHS, gap, drive kernels) and the grid sums share
    return (g * g + 1.0) - 2.0 * g * cos_k


def momentum_grid(n: int) -> np.ndarray:
    """Positive quasi-momenta pi/n, 3pi/n, ..., pi - pi/n of an even chain.

    Args:
        n: even chain length >= 2.

    Returns:
        Array of n/2 strictly increasing momenta in (0, pi), spaced 2*pi/n.
    """
    _check_chain_length(n)
    return np.pi * (2.0 * np.arange(n // 2) + 1.0) / n


def coupling_exact(m, g, n: int):
    """Closed-form coupling strength of the (m+1)-spin counterdiabatic term.

    Args:
        m: interaction range, 0 <= m <= n-1 (m = 0 is identically zero);
            a scalar or an array, like every range and order in this module.
        g: transverse field, finite and g >= 0, or a column of fields
            (shape (S, 1)), which gives one row per field, the scalar
            call's bit for bit.
        n: even chain length.

    Returns:
        The coupling, of the shape of m (one row per field of a column). It
        is evaluated at x = min(g, 1/g), where no power exceeds 1, and
        divided by g^2 above g = 1 (the field-inversion duality);
        0**0 == 1 keeps the g -> 0+ limit.
    """
    _check_chain_length(n)
    # the closed form holds for 0 <= m <= n-1 only; m = n is provably wrong
    _check_ranges(m, 0, n - 1)

    def factors(g: float) -> tuple[float, float, float]:
        x = g if g <= 1.0 else 1.0 / g
        return x, 8.0 * (1.0 + x**n), max(1.0, g * g)

    x, norm, square = _per_field(factors, _check_field(g))
    # abs() keeps m = 0 off 0**-1; the (m != 0) factor then zeroes it
    value = (x ** abs(m - 1) + x ** (n - m - 1)) / norm / square
    return value * (m != 0)


class _Grid(NamedTuple):
    # the field-independent factors of one chain length's momentum grid:
    # sin k, cos k and s2 = sin^2(k/2), and the tables whose row m,
    # m = 0 .. n, holds sin(mk), cos(mk) and s2^m
    sin_k: np.ndarray
    cos_k: np.ndarray
    s2: np.ndarray
    sin_mk: np.ndarray
    cos_mk: np.ndarray
    s2_powers: np.ndarray


@functools.lru_cache(maxsize=1)
def _grid_tables(n: int) -> _Grid:
    # the grid sums' tables for the most recent n only: verify finishes each
    # chain length before it moves on, and n = 2000 takes 48 MB
    ks = momentum_grid(n)
    s2 = np.sin(0.5 * ks) ** 2
    every = np.multiply.outer(np.arange(n + 1), ks)
    return _Grid(np.sin(ks), np.cos(ks), s2, np.sin(every), np.cos(every), s2 ** np.arange(n + 1)[:, None])


def coupling_sum(m, g: float, n: int):
    """Brute-force momentum sum behind coupling_exact.

    sin(mk) sin(k)/den (den from _denominator) summed by numpy over the
    momentum grid, divided by 2n. Takes integer ranges 0 <= m <= n, the rows
    of the chain's table, and any real g or a column of them; the
    denominator never vanishes on the grid.
    """
    grid = _grid_tables(n)
    _check_ranges(m, 0, n)
    # a column of fields gives one row of ranges per field
    weights = grid.sin_k / _denominator(g, grid.cos_k)
    if np.ndim(g):
        weights = weights[..., None, :]
    return (grid.sin_mk[m] * weights).sum(axis=-1) / (2.0 * n)


def cos_sum_exact(m, g, n: int):
    """Closed form of the companion cosine sum (see cos_sum).

    (g^(n-m) - g^m) / (4 (g^n + 1)(g^2 - 1)). The g = 1 value is the
    analytic limit (n - 2m)/16, hard-coded rather than nudged; g > 1 is
    rearranged to avoid overflowing g**n. g is a field or a column of
    fields, as in coupling_exact; each field takes its own branch.
    """
    _check_chain_length(n)
    _check_ranges(m, 0, n - 1)
    g = _check_field(g)

    def branch(g: float) -> tuple[int, int, float]:
        # the offsets of the two exponents, top - m and bottom + m, and their
        # divisor; g = 1 takes the limit below, and divides 0 by 1 meanwhile
        if g == 1.0:
            return n, 0, 1.0
        if g > 1.0:
            # divide numerator and denominator by g**n so nothing overflows
            return 0, -n, 4.0 * (1.0 + g ** (-n)) * (g * g - 1.0)
        return n, 0, 4.0 * (g**n + 1.0) * (g * g - 1.0)

    top, bottom, divisor = _per_field(branch, g)
    value = (g ** (top - m) - g ** (bottom + m)) / divisor + 0.0
    limit = (n - 2 * m) / 16.0
    if np.ndim(g):
        return np.where(g == 1.0, limit, value)
    return limit if g == 1.0 else value


def cos_sum(m, g, n: int):
    """Brute-force sum of cos(mk)/den over the grid, / 2n (numpy; den, m and g as in coupling_sum)."""
    grid = _grid_tables(n)
    _check_ranges(m, 0, n)
    den = _denominator(g, grid.cos_k)
    if np.ndim(g):
        den = den[..., None, :]
    return (grid.cos_mk[m] / den).sum(axis=-1) / (2.0 * n)


def coupling_thermo(m, g):
    """Thermodynamic-limit approximation to coupling_exact.

    g**(m-1)/8 below the critical field, g**(-m-1)/8 at or above it; the
    two branches agree at g = 1. Uses the 0**0 == 1 convention at g = 0.
    g is a field or a column of fields, as in coupling_exact.
    """
    _check_ranges(m, 1, math.inf)
    g = _check_field(g)
    return g ** np.where(g < 1.0, m - 1, -m - 1) / 8.0


def period_sign(m, n: int):
    """Sign of the grid average of cos(mk): zero unless n divides m.

    Summing cos(mk) over the full momentum grid leaves (-1)**(m/n) times
    n/2 when m is a multiple of n and nothing otherwise; this returns the
    sign factor (0, +1 or -1), of the shape of m.
    """
    return (m % n == 0) * (1 - 2 * (m // n % 2))


def _check_expansion_order(m: int) -> None:
    if m < 0:
        raise ValueError("order must be nonnegative")
    if m > EXPANSION_MAX_ORDER:
        raise ValueError(f"order {m} unsupported (max {EXPANSION_MAX_ORDER})")


def sin_product_expansion(m: int) -> list[int]:
    """Integer coefficients of sin(k)sin(mk) in powers of sin(k/2).

    sin(k)sin(mk) = sum_s coeffs[s] * sin(k/2)**(2s+2) with s = 0..m. The
    coefficients are exact integers, built by multiplicative ratio updates
    in integer arithmetic (no raw factorials): each update's division
    leaves no remainder.
    """
    _check_expansion_order(m)
    out = [4 * m]
    for s in range(1, m + 1):
        term, remainder = divmod(
            out[-1] * -4 * (m + s - 1) * (m - s + 1) * (2 * m * m + s),
            (2 * s) * (2 * s + 1) * (2 * m * m + s - 1),
        )
        assert remainder == 0
        out.append(term)
    return out


def cos_multiple_expansion(m: int) -> list[int]:
    """Integer coefficients of cos(mk) in powers of sin(k/2).

    cos(mk) = sum_s coeffs[s] * sin(k/2)**(2s) with s = 0..m.
    """
    _check_expansion_order(m)
    out = [1]
    for s in range(1, m + 1):
        term, remainder = divmod(out[-1] * -4 * (m + s - 1) * (m - s + 1), (2 * s - 1) * (2 * s))
        assert remainder == 0
        out.append(term)
    return out


def power_sum(order, x: float, n: int):
    """Brute-force sum of sin(k/2)**(2*order)/(sin(k/2)^2 + sinh(x/2)^2), by numpy.

    Takes integer orders 0 <= order <= n, the domain of power_sum_exact.
    """
    grid = _grid_tables(n)
    _check_ranges(order, 0, n, "order")
    return (grid.s2_powers[order] / (grid.s2 + math.sinh(0.5 * x) ** 2)).sum(axis=-1)


def power_sum_exact(order, x: float, n: int):
    """Closed form of power_sum, for 0 <= order <= n, x != 0 and a finite sinh(x/2)^(2 order).

    Args:
        order: half the power of sin(k/2) in the numerator, a scalar, which
            gives a float, or an array. The terms add in ascending s along
            the rows of one term table, so each entry of an array is its
            scalar call bit for bit.
        x: log-field, x = ln g, nonzero.
        n: even chain length.
    """
    _check_chain_length(n)
    _check_integer(order, "order")
    orders = np.asarray(order)
    lo, top = int(orders.min(initial=0)), int(orders.max(initial=0))
    if lo < 0 or top > n:
        raise ValueError(f"order {lo if lo < 0 else top} outside [0, {n}]")
    if x == 0:
        raise ValueError("log-field must be nonzero")
    try:
        shift = math.sinh(0.5 * x) ** 2
        # (-shift)^j for j = 0 .. the largest order, one scalar power each
        powers = [(-shift) ** j for j in range(top + 1)]
        scale = n * math.tanh(0.5 * n * x) / math.sinh(x)
    except OverflowError:
        raise ValueError(
            f"sinh(x/2)^{2 * top} overflows a float at field g = 10^{x / math.log(10):.6g}"
        ) from None
    # central-binomial weights binom(2s, s)/2**(2s+1), s = 0 .. top - 1
    weights, c = [], 0.5
    for s in range(top):
        weights.append(c)
        c = c * (2 * s + 1) / (2 * (s + 1))
    # row i of the window is (-shift)^(order_i - c) for c = 0 .. top, 0 where
    # c > order_i; its terms s = 0 .. top - 1 sit at c = s + 1, after a 0
    # that starts the sum, and cumsum adds along a row in sequence
    tail = np.concatenate([powers[::-1], np.zeros(top)])
    rows = np.lib.stride_tricks.sliding_window_view(tail, top + 1)[top - orders]
    terms = np.zeros(rows.shape)
    terms[..., 1:] = rows[..., 1:] * weights
    acc = np.cumsum(terms, axis=-1)[..., -1]
    sums = scale * rows[..., 0] + n * acc
    return sums if orders.ndim else float(sums)


def _relative_residual(a, b):
    # |a - b| / max(1, |a|, |b|): absolute below unit scale, relative above it
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _identity_coefficients(g: float) -> tuple[float, float, float]:
    # the identities' Python-float coefficients at one field, (g^2 + 1)/(2g),
    # ((g^2 - 1)/(2g))^2 and (g^2 + 1)/(16 g^2); raises where one would not be
    # a finite, normal float
    if g == 0:
        raise ValueError("field must be positive")
    try:  # an overflowing finite base raises; g^2 = inf gives inf
        coef_sin2 = ((g * g - 1.0) / (2.0 * g)) ** 2
    except OverflowError:
        coef_sin2 = math.inf
    if coef_sin2 == math.inf:
        raise ValueError(f"((g^2 - 1)/(2g))^2 overflows a float at field g = {g}")
    if g * g < sys.float_info.min:
        raise ValueError(f"g^2 is subnormal at field g = {g}")
    if 16.0 * g * g == math.inf:
        raise ValueError(f"16 g^2 overflows a float at field g = {g}")
    return (g * g + 1.0) / (2.0 * g), coef_sin2, (g * g + 1.0) / (16.0 * g * g)


def identity_residuals(g, n: int):
    """Residuals of the trigonometric-sum identities behind the closed forms.

    For every range index m in [0, n-2], evaluates both sides of the three
    reduction identities (cosine-cosine, cosine-sine-squared and
    sine-sine-cosine numerators) and of the two-term recurrence stepping
    the closed forms from m to m+1. Left-hand sides come from direct grid
    sums, right-hand sides from the closed forms.

    Args:
        g: positive field with ((g^2 - 1)/(2g))^2 finite, g^2 normal and
            16 g^2 finite: about 1.5e-154 to 3.35e153. Beyond either end a
            coefficient of the identities rounds to 0 or inf, and the
            residual would read as a failed identity, so it raises. Below
            about g = 0.01 the cos_sin2 and coupling_step right-hand sides
            cancel terms of order 1/g^2, and their residuals grow as far as
            eps/g^2. Or a column of such fields (shape (S, 1)); the error
            names the first bad one.
        n: even chain length.

    Returns:
        Mapping identity name -> maximum residual over m, where each
        residual is |lhs - rhs| / max(1, |lhs|, |rhs|) (absolute below
        unit scale, relative above it). A column gives each name an array
        of S maxima, entry i the scalar call's at field i bit for bit.
    """
    _check_chain_length(n)
    g = _check_field(g)
    coef_cos, coef_sin2, coef_d0 = _per_field(_identity_coefficients, g)
    grid = _grid_tables(n)
    cos_k, sin_k = grid.cos_k, grid.sin_k
    denom = _denominator(g, cos_k)
    if np.ndim(g):
        denom = denom[..., None, :]
    # one row per range m, one column per momentum (behind one row per field)
    ms = np.arange(n - 1)
    cos_mk, sin_mk = grid.cos_mk[: n - 1], grid.sin_mk[: n - 1]
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
            -coef_sin2 * f + coef_d0 * d0 + (dm1 + dp1) / (16.0 * g),
        ),
        "sin_sin_cos": (
            (sin_mk * sin_k * cos_k / denom).sum(axis=-1) / (2.0 * n),
            coef_cos * h - (dm1 - dp1) / (16.0 * g),
        ),
        "coupling_step": (
            coupling_sum(ms + 1, g, n),
            coef_cos * h - coef_sin2 * f + coef_d0 * delta,
        ),
        "aux_step": (cos_sum(ms + 1, g, n), coef_cos * f - h - delta / (8.0 * g)),
    }
    maxima = {name: np.max(_relative_residual(lhs, rhs), axis=-1) for name, (lhs, rhs) in sides.items()}
    return maxima if np.ndim(g) else {name: float(value) for name, value in maxima.items()}


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

    def check(self, n: int) -> None:
        """Raise ValueError unless the model fits a chain of length n: m_max <= n/2."""
        if self.kind is CouplingKind.TRUNCATED:
            _check_ranges(self.m_max, 0, n // 2, "truncation range m_max")

    def label(self) -> str:
        if self.kind is CouplingKind.TRUNCATED:
            return f"truncated(m_max={self.m_max})"
        return self.kind.value


def coupling_set(model: CouplingModel, g, n: int) -> np.ndarray:
    """Coupling strengths for ranges m = 1 .. n/2 under the given model.

    Args:
        model: coupling family (and truncation cap where applicable).
        g: field, finite and g >= 0 for every family, or a column of such
            fields (shape (S, 1)), as the drive kernels take; every field
            of a column is checked, and the error names the first bad one.
        n: even chain length.

    Returns:
        Array of n/2 coupling values indexed by m - 1: the family's public
        function (coupling_exact, coupling_sum or coupling_thermo, the
        truncated family zeroed above m_max) called once on the array of
        ranges. A column gives an (S, n/2) array, whose row i is the call
        at field i bit for bit. The field is checked first, then n, then
        the model.
    """
    g = _check_field(g)
    _check_chain_length(n)
    model.check(n)
    ms = np.arange(1, n // 2 + 1)
    if model.kind is CouplingKind.DIRECT_SUM:
        return coupling_sum(ms, g, n)
    if model.kind is CouplingKind.THERMODYNAMIC:
        return coupling_thermo(ms, g)
    values = coupling_exact(ms, g, n)
    return values * (ms <= model.m_max) if model.kind is CouplingKind.TRUNCATED else values
