"""Sweep runners and reproducible CSV output.

Each runner turns the ChainConfigs it is given (the CLI builds them from
its flags) into plain rows of Python numbers; the writer prepends a
manifest (command, parameters, version, timestamp) as comment lines so
every file is self-describing. The sweeps and the oracle comparison group
their configs by chain length and advance each group in one step loop
(dynamics.evolve_chains), which moves no bit of any row. Data rows are
deterministic: identical parameters give byte-identical rows.
"""

from __future__ import annotations

import datetime
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .coefficients import (
    EXPANSION_MAX_ORDER,
    CouplingKind,
    CouplingModel,
    _check_field,
    _relative_residual as rel,
    cos_multiple_expansion,
    cos_sum,
    cos_sum_exact,
    coupling_exact,
    coupling_set,
    coupling_sum,
    identity_residuals,
    momentum_grid,
    power_sum,
    power_sum_exact,
    sin_product_expansion,
)
from .dynamics import (
    DEFAULT_G0,
    DEFAULT_GF,
    ChainConfig,
    Schedule,
    cd_drive_exact,
    cd_drive_from_couplings,
    cd_drive_thermo,
    dispersion_ground_energy,
    evolve_chain,
    evolve_chains,
)
from .spin_oracle import MAX_SPINS, dense_evolve, sector_ground_energy


def save_csv(
    path: str | None,
    command: str,
    params: dict[str, object],
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Write a run as CSV with LF endings, to path or to stdout when path is None.

    The file opens with the manifest: "# key = value" comment lines for the
    command, the package and numpy versions (one line), a UTC
    timestamp and each parameter in key order. The header row and the data
    rows follow; floats are written by repr, which round-trips them exactly.
    """
    versions = f"cdising {__version__} numpy {np.__version__}"
    lines = [f"# command = {command}", f"# version = {versions}"]
    lines.append(f"# timestamp = {datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    lines += [f"# {key} = {params[key]}" for key in sorted(params)]
    lines.append(",".join(columns))
    # float() first: numpy scalars pass the isinstance check but repr as np.float64(...)
    lines += [
        ",".join(repr(float(cell)) if isinstance(cell, float) else str(cell) for cell in row)
        for row in rows
    ]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii", newline="") as stream:
        stream.write(text)


def run_coeffs(n: int, g: float, model: CouplingModel) -> list[tuple[int, float]]:
    """Coupling table rows (m, value) for m = 1 .. n/2."""
    values = coupling_set(model, g, n)
    return [(m, float(values[m - 1])) for m in range(1, n // 2 + 1)]


def run_truncation_sweep(
    configs: Sequence[ChainConfig], jobs: int = 1
) -> list[tuple[int, int, float]]:
    """Final ground-state probability as rows (n, m_max, p_gs) in config order.

    jobs: worker processes, >= 1 (1 = serial; the rows are identical either
    way, and no more workers start than there are configs).
    """
    probs = [result.p_gs for result in evolve_chains(configs, jobs)]
    return [(c.n, c.coupling.m_max, p) for c, p in zip(configs, probs)]


def run_size_sweep(configs: Sequence[ChainConfig], jobs: int = 1) -> list[tuple[int, float, float]]:
    """Final ground-state probability as rows (n, t_final, p_gs) in config
    order; jobs as in run_truncation_sweep."""
    probs = [result.p_gs for result in evolve_chains(configs, jobs)]
    return [(c.n, c.schedule.duration, p) for c, p in zip(configs, probs)]


def run_trace(config: ChainConfig, samples: int) -> list[tuple[float, float, float]]:
    """Instantaneous ground-state probability along the ramp, as rows
    (t, g, p_instant) at samples >= 2 uniformly spaced times."""
    return evolve_chain(config, samples).trace


def run_oracle_comparison(configs: Sequence[ChainConfig]) -> list[tuple[str, float, float, float]]:
    """Dense spin evolution against the fermionic pipeline, one row (model
    label, p dense, p fermionic, absolute difference) per config."""
    rows = []
    for config, fermionic in zip(configs, evolve_chains(configs)):
        dense = dense_evolve(config)
        rows.append((config.coupling.label(), dense, fermionic.p_gs, abs(dense - fermionic.p_gs)))
    return rows


@dataclass
class Check:
    """One verification outcome: worst residual against its threshold."""

    name: str
    scope: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


def _default_verify_grid() -> list[float]:
    grid = [round(0.05 + 0.45 * i, 10) for i in range(12)]  # 0.05 .. 5.0
    return [0.0, 1.0] + grid


def _chebyshev_shifted(count: int) -> list[list[int]]:
    # integer coefficients of T_m(1 - 2y) in powers of y, m = 0 .. count
    polys = [[1], [1, -2]]
    while len(polys) <= count:
        prev, last = polys[-2], polys[-1]
        following = [0] * (len(last) + 1)
        for i, c in enumerate(last):
            following[i] += 2 * c
            following[i + 1] -= 4 * c
        for i, c in enumerate(prev):
            following[i] -= c
        polys.append(following)
    return polys


# every verification check, in report order, with the largest residual it passes at
CHECKS = {
    "coupling closed vs sum": 1e-12,
    "cosine sum closed vs sum": 1e-12,
    "field-inversion duality": 1e-12,
    "reduction identities": 1e-12,
    "power sum closed vs sum": 1e-12,
    "power sum recurrence": 1e-12,
    "expansion Chebyshev identity": 0.5,
    "expansion reconstruction": 1e-10,
    "drive resummation": 1e-12,
    "dense ground energies": 1e-10,
    "dense vs fermionic evolution": 1e-6,
}


def run_verification(
    n_values: Sequence[int], g_values: Sequence[float] | None = None
) -> list[Check]:
    """Full identity and cross-pipeline verification suite.

    Args:
        n_values: chain lengths for the coefficient checks; the dense
            spin-oracle checks run at each of them up to MAX_SPINS.
        g_values: fields; defaults to a grid over [0.05, 5] plus {0, 1}.

    Returns:
        One Check per entry of CHECKS that the grid reaches, worst case
        over the grid, in CHECKS order; a check with no grid point in
        reach (the duality at g = 0 alone, say) is left out.
    """
    if g_values is None:
        g_values = _default_verify_grid()
    for name, values in (("n_values", n_values), ("g_values", g_values)):
        if len(values) == 0:
            raise ValueError(f"{name} must list at least one value")
    g_values = [_check_field(g) for g in g_values]
    worst: dict[str, tuple[float, str]] = {}

    def keep(name: str, residuals, scope: Callable[[int], str]) -> None:
        # the first largest residual, located by scope(index), replaces the
        # check's worst so far only when strictly larger
        residuals = np.atleast_1d(residuals)
        at = int(np.argmax(residuals))
        if name not in worst or residuals[at] > worst[name][0]:
            worst[name] = (float(residuals[at]), scope(at))

    # closed forms against brute-force sums, duality, reduction identities,
    # power sums and drive resummations, each one array over m (or order,
    # or momentum) per (n, g).
    # The power-sum recurrence runs on brute values, which stay O(n) at every
    # order. The closed form alternates in powers of the shift sinh^2(x/2), so
    # order p cancels to about eps * shift^p: past shift 1 it runs to order 4,
    # whose overflow bounds verify's fields, and is compared while shift^p <= 1e3.
    for n in n_values:
        ms = np.arange(n)
        ks = momentum_grid(n)
        for g in g_values:
            where = f"g={g} n={n}"
            at_m = lambda m: f"m={m} {where}"
            at_order = lambda order: f"order={order} {where}"
            # each drive kernel once on the whole momentum grid; the
            # residuals sit k by k, exact before thermo
            pairs = (
                (cd_drive_exact(ks, g), CouplingModel(CouplingKind.EXACT)),
                (cd_drive_thermo(ks, g, n), CouplingModel(CouplingKind.THERMODYNAMIC)),
            )
            r = np.column_stack(
                [rel(closed, cd_drive_from_couplings(ks, g, model, n)) for closed, model in pairs]
            ).ravel()
            keep(
                "drive resummation", r,
                lambda i: f"{('exact', 'thermo')[i % 2]} drive k={ks[i // 2]:.3f} {where}",
            )
            h = coupling_exact(ms, g, n)
            keep("coupling closed vs sum", rel(h, coupling_sum(ms, g, n)), at_m)
            keep("cosine sum closed vs sum", rel(cos_sum_exact(ms, g, n), cos_sum(ms, g, n)), at_m)
            if g <= 0:
                continue
            keep("field-inversion duality", rel(g * h, coupling_exact(ms, 1.0 / g, n) / g), at_m)
            identities = identity_residuals(g, n)
            names = list(identities)
            keep("reduction identities", list(identities.values()), lambda i: f"{names[i]} {where}")
            if g == 1.0:
                continue
            x = math.log(g)
            shift = math.sinh(0.5 * x) ** 2
            brute = power_sum(np.arange(n + 1), x, n)
            closed = power_sum_exact(np.arange((n if shift <= 1.0 else min(n, 4)) + 1), x, n)
            cap = n if shift <= 1.0 else min(n, 4, int(math.log(1e3) / math.log(shift)))
            keep("power sum closed vs sum", rel(closed[: cap + 1], brute[: cap + 1]), at_order)
            # central-binomial weights binom(2s, s)/2**(2s+1), s = 0 .. n-1
            weights = 0.5 * np.cumprod(np.r_[1.0, (2.0 * ms[:-1] + 1.0) / (2.0 * ms[1:])])
            keep("power sum recurrence", rel(brute[1:], n * weights - brute[:-1] * shift), at_order)

    # expansions cross-checked exactly against the Chebyshev route:
    # cos(mk) = T_m(1 - 2 sin^2(k/2)), and the sine product is half the
    # difference of the neighboring cosine expansions
    cheb = _chebyshev_shifted(EXPANSION_MAX_ORDER + 1)
    pad = [0] * (EXPANSION_MAX_ORDER + 2)
    for m in range(EXPANSION_MAX_ORDER + 1):
        b = cos_multiple_expansion(m)
        diff = max(abs(x - y) for x, y in zip(b + pad, cheb[m] + pad))
        keep("expansion Chebyshev identity", float(diff), lambda _: f"cos expansion m={m}")
        if m == 0:
            continue
        a = sin_product_expansion(m)
        low = cheb[m - 1] + pad
        high = cheb[m + 1] + pad
        diff = max(abs(2 * a[s] - (low[s + 1] - high[s + 1])) for s in range(m + 1))
        keep("expansion Chebyshev identity", float(diff), lambda _: f"sin expansion m={m}")

    # and a small-order float reconstruction to tie them to actual angles;
    # the alternating terms cancel to ~4^m eps near k = pi, so this family
    # gets the expansion tolerance, not the identity one
    for m in range(7):
        sin_coeffs, cos_coeffs = sin_product_expansion(m), cos_multiple_expansion(m)
        for k in np.linspace(0.1, math.pi - 0.1, 7):
            s2 = math.sin(0.5 * k) ** 2
            rebuilt = sum(c * s2 ** (s + 1) for s, c in enumerate(sin_coeffs))
            r = abs(rebuilt - math.sin(k) * math.sin(m * k))
            keep("expansion reconstruction", r, lambda _: f"sin expansion m={m} k={k:.3f}")
            rebuilt = sum(c * s2**s for s, c in enumerate(cos_coeffs))
            r = abs(rebuilt - math.cos(m * k))
            keep("expansion reconstruction", r, lambda _: f"cos expansion m={m} k={k:.3f}")

    # dense spin oracle against the fermionic pipeline
    ramp = Schedule(DEFAULT_G0, DEFAULT_GF, 1.0)
    for n in n_values:
        if n > MAX_SPINS:
            continue
        for g in (0.0, 0.5, 1.0, 2.0):
            r = abs(sector_ground_energy(n, g) - dispersion_ground_energy(n, g))
            keep("dense ground energies", r, lambda _: f"g={g} n={n}")
        config = ChainConfig(n, ramp, CouplingModel(CouplingKind.EXACT))
        for label, _, _, diff in run_oracle_comparison([config]):
            keep("dense vs fermionic evolution", diff, lambda _: f"{label} n={n} t_final=1")
    return [
        Check(name, worst[name][1], worst[name][0], threshold)
        for name, threshold in CHECKS.items()
        if name in worst
    ]


def verification_report(checks: Sequence[Check], stream: TextIO) -> bool:
    """Print one line per check; returns True when everything passed."""
    ok = True
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        stream.write(
            f"{status}  {check.name}: max residual {check.residual:.3e} "
            f"(threshold {check.threshold:.0e}) at {check.scope}\n"
        )
        ok = ok and check.passed
    return ok
