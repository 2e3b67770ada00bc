"""Sweep runners and reproducible CSV output.

Each runner turns a parameter grid into plain rows of Python numbers; the
writer prepends a manifest (command, parameters, version, timestamp) as
comment lines so every file is self-describing. Data rows are deterministic:
identical parameters give byte-identical rows.
"""

from __future__ import annotations

import datetime
import math
import sys
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .coefficients import (
    CouplingKind,
    CouplingModel,
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
    DEFAULT_ABS_TOL,
    DEFAULT_G0,
    DEFAULT_GF,
    DEFAULT_REL_TOL,
    DEFAULT_T_FINAL,
    ChainConfig,
    Schedule,
    cd_drive_exact,
    cd_drive_from_couplings,
    cd_drive_thermo,
    dispersion_ground_energy,
    evolve_chain,
)
from .spin_oracle import MAX_SPINS, dense_evolve, sector_ground_energy


@dataclass
class RunManifest:
    """Provenance header serialized into every output file."""

    command: str
    params: dict[str, object]
    version: str = __version__
    timestamp: str = field(
        default_factory=lambda: datetime.datetime.now(datetime.timezone.utc).isoformat()
    )

    def lines(self) -> list[str]:
        out = [
            f"# command = {self.command}",
            f"# version = cdising {self.version}",
            f"# timestamp = {self.timestamp}",
        ]
        for key in sorted(self.params):
            out.append(f"# {key} = {self.params[key]}")
        return out


def _format_cell(value: object) -> str:
    # repr round-trips floats exactly and never prints fewer than the
    # significant digits the value carries
    if isinstance(value, float):
        # float() first: numpy scalars pass the isinstance check but
        # repr as np.float64(...)
        return repr(float(value))
    return str(value)


def write_csv(
    stream: TextIO,
    manifest: RunManifest,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Write manifest comments, a header row and data rows with LF endings."""
    for line in manifest.lines():
        stream.write(line + "\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(cell) for cell in row) + "\n")


def save_csv(
    path: str | None,
    manifest: RunManifest,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """write_csv to a path, or to stdout when path is None."""
    if path is None:
        write_csv(sys.stdout, manifest, columns, rows)
        return
    with open(path, "w", encoding="ascii", newline="") as stream:
        write_csv(stream, manifest, columns, rows)


def run_coeffs(n: int, g: float, model: CouplingModel) -> list[tuple[int, float]]:
    """Coupling table rows (m, value) for m = 1 .. n/2."""
    values = coupling_set(model, g, n)
    return [(m, float(values[m - 1])) for m in range(1, n // 2 + 1)]


def _p_gs(config: ChainConfig) -> float:
    return evolve_chain(config).p_gs


def _final_probabilities(configs: Sequence[ChainConfig], jobs: int) -> list[float]:
    # final p_gs of each config, in order; a config pickles whole, and
    # evolve_chain does not depend on its process, so jobs never moves a bit
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(configs) < 2:
        return [_p_gs(config) for config in configs]
    with Pool(min(jobs, len(configs))) as pool:
        return pool.map(_p_gs, configs)


def run_truncation_sweep(
    n_values: Sequence[int],
    t_final: float = DEFAULT_T_FINAL,
    g0: float = DEFAULT_G0,
    gf: float = DEFAULT_GF,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    m_grids: dict[int, Sequence[int]] | None = None,
    jobs: int = 1,
) -> list[tuple[int, int, float]]:
    """Final ground-state probability over truncation ranges.

    Args:
        n_values: even chain lengths.
        t_final, g0, gf: ramp parameters.
        rel_tol, abs_tol: solver tolerances.
        m_grids: optional per-length list of truncation ranges; defaults
            to every m_max in [0, n/2].
        jobs: worker processes, >= 1 (1 = serial; the rows are identical
            either way, and no more workers start than there are rows).

    Returns:
        Rows (n, m_max, p_gs) sorted by (n, m_max).
    """
    schedule = Schedule(g0, gf, t_final)
    configs = [
        ChainConfig(n, schedule, CouplingModel(CouplingKind.TRUNCATED, m_max), rel_tol, abs_tol)
        for n in sorted(n_values)
        for m_max in (sorted(m_grids[n]) if m_grids else range(n // 2 + 1))
    ]
    probs = _final_probabilities(configs, jobs)
    return [(c.n, c.coupling.m_max, p) for c, p in zip(configs, probs)]


def run_size_sweep(
    n_values: Sequence[int],
    t_values: Sequence[float] = (1.0, 10.0, 100.0),
    kind: CouplingKind = CouplingKind.THERMODYNAMIC,
    g0: float = DEFAULT_G0,
    gf: float = DEFAULT_GF,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    jobs: int = 1,
) -> list[tuple[int, float, float]]:
    """Final ground-state probability over chain lengths and ramp times.

    Returns rows (n, t_final, p_gs) sorted by (n, t_final).
    """
    model = CouplingModel(kind)
    configs = [
        ChainConfig(n, Schedule(g0, gf, t_final), model, rel_tol, abs_tol)
        for n in sorted(n_values)
        for t_final in sorted(t_values)
    ]
    probs = _final_probabilities(configs, jobs)
    return [(c.n, c.schedule.duration, p) for c, p in zip(configs, probs)]


def run_trace(
    n: int = 200,
    t_final: float = DEFAULT_T_FINAL,
    kind: CouplingKind = CouplingKind.THERMODYNAMIC,
    samples: int = 500,
    g0: float = DEFAULT_G0,
    gf: float = DEFAULT_GF,
    m_max: int | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> list[tuple[float, float, float]]:
    """Instantaneous ground-state probability along the ramp.

    m_max is the truncation range of kind TRUNCATED and must be None for
    every other kind. Returns rows (t, g, p_instant) at uniformly spaced
    sample times.
    """
    if samples < 2:
        # ChainConfig reads trace_points = 0 as "no trace"
        raise ValueError(f"trace needs at least 2 samples, got {samples}")
    model = CouplingModel(kind, m_max)
    config = ChainConfig(n, Schedule(g0, gf, t_final), model, rel_tol, abs_tol, samples)
    return evolve_chain(config).trace


def run_oracle_comparison(
    n: int,
    models: Sequence[CouplingModel],
    t_final: float = DEFAULT_T_FINAL,
    g0: float = DEFAULT_G0,
    gf: float = DEFAULT_GF,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> list[tuple[str, float, float, float]]:
    """Dense spin evolution against the fermionic pipeline, model by model.

    Returns rows (model label, p dense, p fermionic, absolute difference).
    """
    schedule = Schedule(g0, gf, t_final)
    rows = []
    for model in models:
        dense = dense_evolve(n, schedule, model, rel_tol, abs_tol)
        fermionic = evolve_chain(ChainConfig(n, schedule, model, rel_tol, abs_tol)).p_gs
        rows.append((model.label(), dense, fermionic, abs(dense - fermionic)))
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


def run_verification(
    n_values: Sequence[int] = (2, 4, 8, 16, 64, 200),
    g_values: Sequence[float] | None = None,
    oracle_sizes: Sequence[int] = (2, 4, 8),
    corrupt: bool = False,
) -> list[Check]:
    """Full identity and cross-pipeline verification suite.

    Args:
        n_values: chain lengths for the coefficient checks.
        g_values: fields; defaults to a grid over [0.05, 5] plus {0, 1}.
        oracle_sizes: lengths (<= 10, possibly empty) for the dense
            spin-oracle equivalence runs.
        corrupt: self-test switch; perturbs one closed-form coupling so
            the suite must report a failure.

    Returns:
        One Check per verification family, worst case over the grid.
    """
    if g_values is None:
        g_values = _default_verify_grid()
    tol = 1e-12
    checks: list[Check] = []

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    # closed forms against brute-force sums, plus duality; worst trackers
    # start below zero so the reported location is always a real grid point
    worst_h = worst_f = worst_dual = (-1.0, "")
    for n in n_values:
        for g in g_values:
            for m in range(n):
                value = coupling_exact(m, g, n)
                if corrupt and m == 1 and g == g_values[-1] and n == n_values[-1]:
                    value += 1e-6
                r = rel(value, coupling_sum(m, g, n))
                if r > worst_h[0]:
                    worst_h = (r, f"m={m} g={g} n={n}")
                r = rel(cos_sum_exact(m, g, n), cos_sum(m, g, n))
                if r > worst_f[0]:
                    worst_f = (r, f"m={m} g={g} n={n}")
                if g > 0:
                    r = rel(g * coupling_exact(m, g, n), coupling_exact(m, 1.0 / g, n) / g)
                    if r > worst_dual[0]:
                        worst_dual = (r, f"m={m} g={g} n={n}")
    checks.append(Check("coupling closed vs sum", worst_h[1], worst_h[0], tol))
    checks.append(Check("cosine sum closed vs sum", worst_f[1], worst_f[0], tol))
    checks.append(Check("field-inversion duality", worst_dual[1], worst_dual[0], tol))

    # reduction identities and recurrences
    worst = (-1.0, "")
    for n in n_values:
        for g in g_values:
            if g <= 0:
                continue
            for name, residual in identity_residuals(g, n).items():
                if residual > worst[0]:
                    worst = (residual, f"{name} g={g} n={n}")
    checks.append(Check("reduction identities", worst[1], worst[0], tol))

    # power sums: closed form vs brute force, and the half-integer recurrence.
    # The recurrence runs on brute values, which stay O(n) at every order;
    # the closed form alternates in powers of sinh^2(x/2) and cancels
    # catastrophically once that shift exceeds 1 (g below 3 - 2*sqrt(2)),
    # so there the comparison stops at order 4.
    worst_w = worst_rec = (-1.0, "")
    for n in n_values:
        for g in g_values:
            if g <= 0 or g == 1.0:
                continue
            x = math.log(g)
            shift = math.sinh(0.5 * x) ** 2
            brute = [power_sum(order, x, n) for order in range(n + 1)]
            closed_orders = n if shift <= 1.0 else min(n, 4)
            for order in range(closed_orders + 1):
                r = rel(power_sum_exact(order, x, n), brute[order])
                if r > worst_w[0]:
                    worst_w = (r, f"order={order} g={g} n={n}")
            c = 0.5
            for order in range(n):
                step = n * c - brute[order] * shift
                c = c * (2 * order + 1) / (2 * (order + 1))
                r = rel(brute[order + 1], step)
                if r > worst_rec[0]:
                    worst_rec = (r, f"order={order} g={g} n={n}")
    checks.append(Check("power sum closed vs sum", worst_w[1], worst_w[0], tol))
    checks.append(Check("power sum recurrence", worst_rec[1], worst_rec[0], tol))

    # expansions cross-checked exactly against the Chebyshev route:
    # cos(mk) = T_m(1 - 2 sin^2(k/2)), and the sine product is half the
    # difference of the neighboring cosine expansions
    worst = (-1.0, "")
    cheb = _chebyshev_shifted(65)
    for m in range(65):
        b = cos_multiple_expansion(m)
        diff = max(abs(x - y) for x, y in zip(b + [0] * 66, cheb[m] + [0] * 66))
        if diff > worst[0]:
            worst = (float(diff), f"cos expansion m={m}")
        if m == 0:
            continue
        a = sin_product_expansion(m)
        low = cheb[m - 1] + [0] * 66
        high = cheb[m + 1] + [0] * 66
        diff = max(abs(2 * a[s] - (low[s + 1] - high[s + 1])) for s in range(m + 1))
        if diff > worst[0]:
            worst = (float(diff), f"sin expansion m={m}")
    checks.append(Check("expansion Chebyshev identity", worst[1], worst[0], 0.5))

    # and a small-order float reconstruction to tie them to actual angles;
    # the alternating terms cancel to ~4^m eps near k = pi, so this family
    # gets the expansion tolerance, not the identity one
    worst = (-1.0, "")
    for m in range(7):
        for k in np.linspace(0.1, math.pi - 0.1, 7):
            s2 = math.sin(0.5 * k) ** 2
            rebuilt = sum(c * s2 ** (s + 1) for s, c in enumerate(sin_product_expansion(m)))
            r = abs(rebuilt - math.sin(k) * math.sin(m * k))
            if r > worst[0]:
                worst = (r, f"sin expansion m={m} k={k:.3f}")
            rebuilt = sum(c * s2**s for s, c in enumerate(cos_multiple_expansion(m)))
            r = abs(rebuilt - math.cos(m * k))
            if r > worst[0]:
                worst = (r, f"cos expansion m={m} k={k:.3f}")
    checks.append(Check("expansion reconstruction", worst[1], worst[0], 1e-10))

    # drive resummations against the literal coupling sums, each kernel
    # called once per (n, g) on the whole momentum grid; the residuals sit
    # k by k, exact before thermo, which is the order the worst is kept in
    worst = (-1.0, "")
    for n in n_values:
        ks = momentum_grid(n)
        for g in g_values:
            pairs = (
                (cd_drive_exact(ks, g), CouplingModel(CouplingKind.EXACT)),
                (cd_drive_thermo(ks, g, n), CouplingModel(CouplingKind.THERMODYNAMIC)),
            )
            residuals = []
            for closed, model in pairs:
                summed = cd_drive_from_couplings(ks, g, model, n)
                scale = np.maximum(1.0, np.maximum(np.abs(closed), np.abs(summed)))
                residuals.append(np.abs(closed - summed) / scale)
            r = np.column_stack(residuals).ravel()
            at = int(np.argmax(r))
            if r[at] > worst[0]:
                kind = ("exact", "thermo")[at % 2]
                worst = (float(r[at]), f"{kind} drive k={ks[at // 2]:.3f} g={g} n={n}")
    checks.append(Check("drive resummation", worst[1], worst[0], tol))

    # dense spin oracle against the fermionic pipeline
    worst_p = (-1.0, "")
    worst_e = (-1.0, "")
    for n in oracle_sizes:
        if n > MAX_SPINS:
            raise ValueError(f"oracle sizes must be <= {MAX_SPINS}")
        for g in (0.0, 0.5, 1.0, 2.0):
            r = abs(sector_ground_energy(n, g) - dispersion_ground_energy(n, g))
            if r > worst_e[0]:
                worst_e = (r, f"g={g} n={n}")
        rows = run_oracle_comparison(n, [CouplingModel(CouplingKind.EXACT)], t_final=1.0)
        for label, _, _, diff in rows:
            if diff > worst_p[0]:
                worst_p = (diff, f"{label} n={n} t_final=1")
    if oracle_sizes:
        checks.append(Check("dense ground energies", worst_e[1], worst_e[0], 1e-10))
        checks.append(Check("dense vs fermionic evolution", worst_p[1], worst_p[0], 1e-6))
    return checks


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
