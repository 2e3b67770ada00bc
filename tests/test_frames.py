"""Cross-frame checks: the adiabatic-frame chain against a lab-frame integration.

evolve_chain integrates each mode in the instantaneous eigenbasis, where
only the residual of the drive against the exact counterdiabatic one acts.
The reference below integrates the same modes in the fixed (v, u) basis
instead, from ground amplitudes written out here, so agreement tests the
frame change itself: the basis rotation, the dynamical phase and reading
p_gs off the ground amplitudes d_g alone.

A flipped sign of the dynamical phase in the frame equations shows in no
output, here or elsewhere: from the real initial state the flipped system
is the complex conjugate of the true one, with the same |d_g| and |d_e|.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cdising import ChainConfig, CouplingKind, CouplingModel, Schedule, evolve_chain, momentum_grid
from cdising.dynamics import cd_drive_exact, cd_drive_from_couplings, drive_function

THERMO = CouplingModel(CouplingKind.THERMODYNAMIC)
TIGHT = {"rel_tol": 1e-13, "abs_tol": 1e-15}


def bogoliubov_angle(k, g):
    """Mixing angle of the mode-pair ground state, in [0, pi].

    k and g may be scalars or arrays that broadcast together.
    """
    return np.arctan2(np.sin(k), g - np.cos(k))


def ground_amplitudes(k, g):
    """Ground-state amplitudes (u, v) of mode k at field g, both >= 0."""
    half = 0.5 * bogoliubov_angle(k, g)
    return np.cos(half), np.sin(half)


def lab_frame_states(config: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Final (v, u) of every grid mode from one DOP853 solve in the lab frame.

    i d/dt (v, u) = 2 [[a, b], [conj(b), -a]] (v, u), with a = g - cos k and
    b = -sin k - i gdot q(k, g), for every mode at once, from the ground
    state at g0. The drive q is the exact one plus the model's residual,
    except for the direct-sum model: its q is the literal coupling sum,
    which the chain integrates as the exact drive, so that this solve checks
    that identity with a drive of its own.
    """
    ks = momentum_grid(config.n)
    half = len(ks)
    schedule = config.schedule
    residual = drive_function(config.coupling, config.n, ks)
    cos_k, sin_k = np.cos(ks), np.sin(ks)

    def drive(g):
        if config.coupling.kind is CouplingKind.DIRECT_SUM:
            return cd_drive_from_couplings(ks, g, config.coupling, config.n)
        return cd_drive_exact(ks, g) + residual(g, (g * g + 1.0) - 2.0 * g * cos_k)

    def rhs(t, y):
        g, gdot = schedule.ramp(min(max(t, 0.0), schedule.duration))
        a = g - cos_k
        q = drive(g)
        b = -sin_k - 1j * (gdot * q)
        v, u = y[:half], y[half:]
        return -2j * np.concatenate((a * v + b * u, b.conj() * v - a * u))

    u0, v0 = ground_amplitudes(ks, schedule.g0)
    sol = solve_ivp(
        rhs,
        (0.0, schedule.duration),
        np.concatenate((v0, u0)).astype(complex),
        method="DOP853",
        rtol=config.rel_tol,
        atol=config.abs_tol,
    )
    assert sol.success
    return sol.y[:half, -1], sol.y[half:, -1]


def lab_frame_probability(config: ChainConfig) -> float:
    """Final p_gs of the lab-frame solve."""
    v, u = lab_frame_states(config)
    uf, vf = ground_amplitudes(momentum_grid(config.n), config.schedule.gf)
    return float(np.prod(np.abs(uf * u + vf * v) ** 2))


@pytest.mark.parametrize(
    "n, model, ramp",
    [
        (20, THERMO, Schedule(5.0, 0.0, 1.0)),
        (20, THERMO, Schedule(5.0, 0.0, 10.0)),
        (200, THERMO, Schedule(5.0, 0.0, 1.0)),
        (200, THERMO, Schedule(5.0, 0.0, 10.0)),
        (20, CouplingModel(CouplingKind.TRUNCATED, 0), Schedule(5.0, 0.0, 10.0)),
        (20, CouplingModel(CouplingKind.TRUNCATED, 3), Schedule(5.0, 0.0, 10.0)),
        (8, CouplingModel(CouplingKind.DIRECT_SUM), Schedule(5.0, 0.0, 10.0)),
        (20, THERMO, Schedule(0.2, 3.0, 2.0)),
        (10, CouplingModel(CouplingKind.TRUNCATED, 1), Schedule(1.0, 1.0, 3.0)),
        (2, THERMO, Schedule(3.0, 0.2, 2.0)),
    ],
    ids=[
        "thermo-n20-T1", "thermo-n20-T10", "thermo-n200-T1", "thermo-n200-T10",
        "truncated0-n20", "truncated3-n20", "direct-n8", "reversed", "g0-equals-gf", "n2",
    ],
)
def test_adiabatic_frame_matches_lab_frame(n, model, ramp):
    config = ChainConfig(n, ramp, model, **TIGHT)
    frame = evolve_chain(config).p_gs
    lab = lab_frame_probability(config)
    assert abs(frame - lab) < 1e-10


@pytest.mark.parametrize("n", [20, 200])
def test_long_ramp_norm_drift_within_gate(n):
    # acceptance criterion 7 gates |d_g|^2 + |d_e|^2 - 1 at 1e-9
    result = evolve_chain(ChainConfig(n, Schedule(5.0, 0.0, 100.0), THERMO))
    assert result.norm_drift <= 1e-9


def test_bogoliubov_angle():
    assert math.isclose(bogoliubov_angle(math.pi / 2, 0.0), math.pi / 2, rel_tol=1e-15)
    assert math.isclose(bogoliubov_angle(math.pi / 2, 1.0), math.pi / 4, rel_tol=1e-15)
    assert bogoliubov_angle(1.0, 50.0) < 0.02
    # below cos(k) the angle turns obtuse but stays in (0, pi)
    angle = bogoliubov_angle(0.3, 0.1)
    assert math.pi / 2 < angle < math.pi


def test_ground_amplitudes_normalized():
    for k in momentum_grid(10):
        for g in (0.0, 0.5, 1.0, 3.0):
            u, v = ground_amplitudes(k, g)
            assert math.isclose(u * u + v * v, 1.0, rel_tol=1e-15)
            assert u >= 0 and v >= 0
    # strong field aligns the ground state with u
    u, v = ground_amplitudes(1.0, 100.0)
    assert u > 0.9999
