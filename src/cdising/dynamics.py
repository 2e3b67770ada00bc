"""Driven free-fermion dynamics of the counterdiabatic Ising chain.

After the fermionization of the periodic chain, each positive quasi-momentum
carries an independent two-level problem. This module integrates those 2x2
mode equations under a cubic field ramp and a chosen coupling model, all
modes of a chain stacked into one vector ODE in the adiabatic interaction
frame, and assembles final and instantaneous ground-state probabilities
from the per-mode amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .coefficients import (
    CouplingKind,
    CouplingModel,
    coupling_set,
    momentum_grid,
)


# Run defaults, declared once for ChainConfig, the experiment runners, the
# dense oracle and the CLI: a ramp from DEFAULT_G0 to DEFAULT_GF over
# DEFAULT_T_FINAL, integrated at the default tolerances.
DEFAULT_G0 = 5.0
DEFAULT_GF = 0.0
DEFAULT_T_FINAL = 10.0
DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator fails to complete a run."""


@dataclass(frozen=True)
class Schedule:
    """Cubic field ramp g(t) with vanishing rate at both ends.

    Args:
        g0: initial field in [0, 1e100].
        gf: final field in [0, 1e100].
        duration: total ramp time in [1e-100, 1e100] (dimensionless, hbar = 1).
    """

    g0: float
    gf: float
    duration: float

    def __post_init__(self) -> None:
        # the drive and the gap square the field, which this bound keeps finite
        for name, value in (("g0", self.g0), ("gf", self.gf)):
            if not 0 <= value <= 1e100:
                raise ValueError(f"schedule {name} must lie in [0, 1e100], got {value}")
        # rate() divides by duration**3, which this range keeps a finite normal float
        if not 1e-100 <= self.duration <= 1e100:
            raise ValueError(f"schedule duration must lie in [1e-100, 1e100], got {self.duration}")

    def value(self, t: float) -> float:
        """Field at time t, 0 <= t <= duration."""
        if not 0 <= t <= self.duration:
            raise ValueError(f"time {t} outside [0, {self.duration}]")
        x = t / self.duration
        return self.g0 + (self.gf - self.g0) * (3.0 - 2.0 * x) * x * x

    def rate(self, t: float) -> float:
        """Analytic time derivative of the field at time t."""
        if not 0 <= t <= self.duration:
            raise ValueError(f"time {t} outside [0, {self.duration}]")
        return 6.0 * (self.gf - self.g0) * t * (self.duration - t) / self.duration**3


def check_tolerances(rel_tol: float, abs_tol: float) -> None:
    """Raise ValueError, naming the tolerance, unless both are finite and positive."""
    for name, value in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class ChainConfig:
    """One chain evolution: length, ramp, coupling model, solver knobs."""

    n: int
    schedule: Schedule
    coupling: CouplingModel
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    trace_points: int = 0

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise ValueError(f"chain length must be even and >= 2, got {self.n}")
        check_tolerances(self.rel_tol, self.abs_tol)
        if self.trace_points < 0 or self.trace_points == 1:
            raise ValueError("trace needs at least 2 samples (0 disables it)")


@dataclass
class EvolutionResult:
    """Outcome of a chain evolution.

    p_gs is the squared overlap with the target ground state at the final
    field, prod over modes of |d_g|^2 (see ground_state_probability); trace
    optionally samples the same overlap with the instantaneous ground state
    along the ramp as (t, g(t), probability) triples. steps counts the accepted
    steps of the one adiabatic-frame integration that carries every mode;
    it is not a sum over modes, and it does not depend on the samples.
    norm_drift is the largest |d_g|^2 + |d_e|^2 - 1 (ground and excited
    amplitudes of one mode) over every mode and accepted step.
    """

    p_gs: float
    trace: list[tuple[float, float, float]] | None
    norm_drift: float
    steps: int


def cd_drive_exact(k, g: float):
    """Momentum-space drive factor resummed from the exact couplings.

    Like every drive kernel here, k is a scalar or an array of momenta.
    """
    return 0.25 * np.sin(k) / ((g * g + 1.0) - 2.0 * g * np.cos(k))


def cd_drive_thermo(k, g: float, n: int):
    """Drive factor resummed from the thermodynamic couplings.

    Exact drive plus a finite-size correction that is exponentially small
    in n away from the critical field; ferromagnetic branch below g = 1,
    paramagnetic branch at and above it.
    """
    if g < 1.0:
        scale = g ** (n // 2 - 1) / 8.0 * (g * g - 1.0)
    else:
        scale = -(g ** (-(n // 2)) / (8.0 * g)) * (g * g - 1.0)
    # the exact drive's denominator, written identically so both agree at g = 1
    return (0.25 * np.sin(k) + scale * np.sin(0.5 * n * k)) / ((g * g + 1.0) - 2.0 * g * np.cos(k))


def cd_drive_from_couplings(k, g: float, model: CouplingModel, n: int):
    """Drive factor summed literally from a coupling set.

    2 * sum over ranges m < n/2 of h_m sin(km), plus the half-weight
    longest-range term h_{n/2} sin(kn/2). The coupling set is built once
    per call, whatever the number of momenta.
    """
    weights = 2.0 * coupling_set(model, g, n)
    weights[-1] *= 0.5
    return (np.sin(np.multiply.outer(k, np.arange(1, n // 2 + 1))) * weights).sum(axis=-1)


def _cd_drive_truncated(k, g: float, n: int, m_max: int):
    # Geometric resummation of 2 sum_{m<=m_max} h_m sin(mk) for
    # 0 <= m_max < n/2; equals the literal sum to rounding.
    if g > 1.0:
        return _cd_drive_truncated(k, 1.0 / g, n, m_max) / (g * g)
    # with w = 1/(1 - g e^{ik}): head = Im((e^{ik} - g^m e^{ik(m+1)}) w),
    # tail = Im((e^{ikm} - g^m) conj(w))
    phase = np.exp(1j * k)
    turn = np.exp(1j * m_max * k)
    power = g**m_max
    w = 1.0 / (1.0 - g * phase)
    head = ((phase - power * phase * turn) * w).imag
    tail = ((turn - power) * w.conj()).imag
    return (head + g ** (n - 1 - m_max) * tail) / (4.0 * (1.0 + g**n))


def drive_function(model: CouplingModel, n: int) -> Callable:
    """Drive factor kernel q(k, g) for the given coupling model.

    The exact and thermodynamic families use their closed resummations;
    the truncated family uses a geometric closed form (the exact kernel
    itself at full range, which carries identical couplings); the
    direct-sum family evaluates the literal coupling sum. Every kernel
    takes a scalar or an array of momenta and a scalar field.
    """
    if model.kind is CouplingKind.EXACT:
        return cd_drive_exact
    if model.kind is CouplingKind.THERMODYNAMIC:
        return partial(cd_drive_thermo, n=n)
    if model.kind is CouplingKind.TRUNCATED:
        assert model.m_max is not None
        if model.m_max > n // 2:
            raise ValueError(f"truncation range {model.m_max} outside [0, {n // 2}]")
        if model.m_max == n // 2:
            return cd_drive_exact
        return partial(_cd_drive_truncated, n=n, m_max=model.m_max)
    return partial(cd_drive_from_couplings, model=model, n=n)


def _integrate(config: ChainConfig, times: np.ndarray) -> tuple[np.ndarray, float, int]:
    # Integrates every grid mode from its ground state at g0, in the
    # adiabatic interaction frame, over the stacked state
    # [d_g..., d_e..., phi...]: ground and excited amplitudes in the
    # instantaneous eigenbasis, stripped of the dynamical phase phi.
    # The exact drive cancels the rotation of the basis, so only the
    # residual r = 2 gdot (q - q_exact) couples the two:
    #   d_g' = r exp(-2i phi) d_e,  d_e' = -r exp(2i phi) d_g,  phi' = 2 eps_k(g)
    # with eps_k = sqrt(g^2 - 2g cos k + 1). One dense-output solve; returns
    # the state at every sample time (one row each), the largest norm drift
    # of any mode at any accepted step, and the accepted steps.
    schedule = config.schedule
    drive = drive_function(config.coupling, config.n)
    ks = momentum_grid(config.n)
    cos_k = np.cos(ks)
    half = len(ks)

    def rhs(t, y):
        # the solver may probe a rounding error beyond the span edges
        tc = min(max(t, 0.0), schedule.duration)
        g = schedule.value(tc)
        coupling = 2.0 * schedule.rate(tc) * (drive(ks, g) - cd_drive_exact(ks, g))
        coupling = coupling * np.exp(2j * y[2 * half :].real)
        gap = np.sqrt((4.0 * g * g + 4.0) - 8.0 * g * cos_k)
        return np.concatenate((coupling.conj() * y[half : 2 * half], -coupling * y[:half], gap))

    t1 = schedule.duration
    y0 = np.concatenate((np.ones(half), np.zeros(2 * half))).astype(complex)
    sol = solve_ivp(
        rhs, (0.0, t1), y0, method="DOP853", rtol=config.rel_tol, atol=config.abs_tol, dense_output=True
    )
    if not sol.success:
        raise IntegrationError(f"integration failed on [0, {t1:.6g}]: {sol.message}")
    norms = np.abs(sol.y[:half]) ** 2 + np.abs(sol.y[half : 2 * half]) ** 2
    return sol.sol(times).T, float(np.max(np.abs(norms - 1.0))), sol.t.size - 1


def ground_state_probability(frames: np.ndarray) -> np.ndarray:
    """Ground-state probability of adiabatic-frame samples: prod over modes of |d_g|^2.

    frames stacks [d_g..., d_e..., phi...] in its last axis. d_g is the
    amplitude on the mode ground state at the sample's own field, so the
    product is the squared overlap with the chain ground state there.
    """
    return np.prod(np.abs(frames[..., : frames.shape[-1] // 3]) ** 2, axis=-1)


def evolve_chain(config: ChainConfig) -> EvolutionResult:
    """Evolve every mode of the chain and assemble ground-state probabilities.

    All n/2 modes are integrated together as one vector ODE, in one
    dense-output solve over the whole ramp. With trace_points = 0 only the
    final probability is computed. With trace_points >= 2 the solution is
    read at uniformly spaced sample times, and the instantaneous
    probability against the ground state of the momentary field is
    recorded at each; the steps, and so the final sample, are those of the
    final-only run.

    The integration does not depend on the process it runs in, so
    identical configs give bit-identical results.
    """
    schedule = config.schedule
    times = np.linspace(0.0, schedule.duration, max(config.trace_points, 2))
    samples, drift, steps = _integrate(config, times)
    probs = ground_state_probability(samples)
    if not config.trace_points:
        return EvolutionResult(float(probs[-1]), None, drift, steps)
    # the last sample sits at the target field itself, not at its rounded ramp value
    fields = [schedule.value(float(t)) for t in times[:-1]] + [schedule.gf]
    trace = [(float(t), float(g), float(p)) for t, g, p in zip(times, fields, probs)]
    return EvolutionResult(trace[-1][2], trace, drift, steps)


def dispersion_ground_energy(n: int, g: float) -> float:
    """Free-fermion ground energy of the even-parity sector at field g."""
    if g < 0:
        raise ValueError("field must be nonnegative")
    return -2.0 * float(np.sqrt(g * g - 2.0 * g * np.cos(momentum_grid(n)) + 1.0).sum())
