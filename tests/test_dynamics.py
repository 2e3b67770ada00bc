"""Unit tests for the driven free-fermion mode evolution."""

from __future__ import annotations

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdising import (
    ChainConfig,
    CouplingKind,
    CouplingModel,
    IntegrationError,
    Schedule,
    coupling_exact,
    evolve_chain,
    momentum_grid,
)
from cdising import _dop853
from cdising.coefficients import coupling_sum
from cdising.dynamics import (
    DEFAULT_G0,
    DEFAULT_GF,
    DEFAULT_T_FINAL,
    MIN_REL_TOL,
    _chains,
    _denominator,
    cd_drive_exact,
    cd_drive_from_couplings,
    cd_drive_thermo,
    dispersion_ground_energy,
    drive_function,
    ground_state_probability,
)

EXACT = CouplingModel(CouplingKind.EXACT)
THERMO = CouplingModel(CouplingKind.THERMODYNAMIC)


def test_schedule_endpoints_and_midpoint():
    ramp = Schedule(5.0, 0.0, 2.0)
    assert ramp.ramp(0.0)[0] == 5.0
    assert ramp.ramp(2.0)[0] == 0.0
    # the cubic ramp passes through the mean field at half time
    assert math.isclose(ramp.ramp(1.0)[0], 2.5, rel_tol=1e-15)
    assert math.isclose(ramp.ramp(0.5)[0], 4.21875, rel_tol=1e-15)


def test_schedule_rate():
    ramp = Schedule(5.0, 0.0, 2.0)
    assert ramp.ramp(0.0)[1] == 0.0
    assert ramp.ramp(2.0)[1] == 0.0
    # peak rate 1.5 * (gf - g0) / duration at half time
    assert math.isclose(ramp.ramp(1.0)[1], -3.75, rel_tol=1e-15)
    # finite difference cross-check away from the extremum
    t, dt = 0.6, 1e-7
    numeric = (ramp.ramp(t + dt)[0] - ramp.ramp(t - dt)[0]) / (2 * dt)
    assert math.isclose(ramp.ramp(t)[1], numeric, rel_tol=1e-6)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(5.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Schedule(-1.0, 0.0, 1.0)
    ramp = Schedule(5.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^time 1\.5 outside \[0, 1\.0\]$"):
        ramp.ramp(1.5)
    with pytest.raises(ValueError, match=r"^time -0\.1 outside \[0, 1\.0\]$"):
        ramp.ramp(-0.1)


def test_schedule_ramp_pair_is_value_and_rate_bitwise():
    # the checked pair both RHS functions read, against the ramp's literal
    # expressions, on a grid that includes t = 0 and t = T
    for ramp in (Schedule(5.0, 0.0, 2.0), Schedule(0.2, 3.0, 7.0), Schedule(1.0, 1.0, 3.0)):
        g0, gf, duration = ramp.g0, ramp.gf, ramp.duration
        for t in [*np.linspace(0.0, duration, 17).tolist(), duration / 3.0]:
            x = t / duration
            literal = (g0 + (gf - g0) * (3.0 - 2.0 * x) * x * x,
                       6.0 * (gf - g0) * t * (duration - t) / duration**3)
            assert [value.hex() for value in ramp.ramp(t)] == [value.hex() for value in literal]


@pytest.mark.parametrize(
    "ramp",
    [Schedule(DEFAULT_G0, DEFAULT_GF, DEFAULT_T_FINAL), Schedule(0.0, 5.0, 10.0), Schedule(1.5, 1.5, 10.0)],
    ids=["default", "reversed", "constant"],
)
def test_schedule_ramp_of_an_array_is_the_scalar_ramp_bitwise(ramp):
    # the chain's clock reads the ramp at all stage times of a step at once
    duration = ramp.duration
    times = np.concatenate(
        ([0.0, duration, ramp.crossings()[0] if ramp.crossings() else 0.5 * duration],
         np.linspace(0.0, duration, 37), np.random.default_rng(7).uniform(0.0, duration, 200))
    )
    fields, rates = ramp.ramp(times)
    scalar = np.array([ramp.ramp(t) for t in times.tolist()])
    assert fields.dtype == rates.dtype == np.float64
    assert fields.tobytes() == scalar[:, 0].tobytes()
    assert rates.tobytes() == scalar[:, 1].tobytes()
    # one time outside the ramp fails the whole array, with the scalar call's message
    for bad in (-0.1, duration + 0.5, math.nan):
        with pytest.raises(ValueError, match=rf"^time {bad} outside \[0, {duration}\]$"):
            ramp.ramp(np.array([0.0, bad, duration]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g0=st.floats(0.0, 1e3), gf=st.floats(0.0, 1e3), duration=st.floats(1e-3, 1e3))
@example(g0=0.0, gf=5.0, duration=10.0)
@example(g0=5.0, gf=0.0, duration=1e-3)
@example(g0=1.0 - 2**-53, gf=1e3, duration=1.0)
@example(g0=1e3, gf=1.0 - 2**-53, duration=1.0)
def test_crossing_lands_on_the_critical_field(g0, gf, duration):
    ramp = Schedule(g0, gf, duration)
    crossings = ramp.crossings()
    unit = 4 * np.finfo(float).eps * max(1.0, g0, gf)
    if not min(g0, gf) < 1.0 < max(g0, gf):
        assert crossings == ()
    elif crossings:
        (t_c,) = crossings
        assert 0.0 < t_c < duration
        assert abs(ramp.ramp(t_c)[0] - 1.0) <= unit
    else:
        # the crossing rounded onto an end, which then reads the critical field
        assert min(abs(ramp.ramp(t)[0] - 1.0) for t in (0.0, duration)) <= unit


@pytest.mark.parametrize("g0, gf", [(0.5, 0.5), (1.0, 1.0), (1.0, 0.0), (5.0, 1.0), (2.0, 3.0), (0.2, 0.7)])
def test_ramp_that_does_not_cross_the_critical_field_has_no_break(g0, gf):
    assert Schedule(g0, gf, 10.0).crossings() == ()


def test_ramp_across_the_critical_field_has_one_break():
    # the symmetric ramp reaches 1, its mean field, at half time
    assert Schedule(2.0, 0.0, 10.0).crossings() == Schedule(0.0, 2.0, 10.0).crossings() == (5.0,)
    # the default ramp crosses at t/T = 0.713, its reverse at the mirrored time
    forward, reverse = Schedule(5.0, 0.0, 10.0), Schedule(0.0, 5.0, 10.0)
    (late,), (early,) = forward.crossings(), reverse.crossings()
    assert round(late / 10.0, 3) == 0.713 and math.isclose(early + late, 10.0, rel_tol=1e-15)
    for ramp, t_c in ((forward, late), (reverse, early)):
        assert math.isclose(ramp.ramp(t_c)[0], 1.0, rel_tol=1e-15)


@pytest.mark.parametrize("g0, gf", [(1.0, 0.0), (5.0, 1.0), (1.0, 1.0), (0.0, 5.0), (0.5, 0.5)])
def test_evolve_chain_on_edge_ramps_keeps_its_gates(g0, gf):
    # with a break or without, the exact drive prepares the ground state and
    # the thermodynamic drive stays within 1e-10 of a converged run
    ramp = Schedule(g0, gf, 1.0)
    exact = evolve_chain(ChainConfig(20, ramp, EXACT))
    assert abs(exact.p_gs - 1.0) < 1e-8 and exact.norm_drift < 1e-9
    thermo = evolve_chain(ChainConfig(20, ramp, THERMO))
    tight = evolve_chain(ChainConfig(20, ramp, THERMO, rel_tol=1e-13, abs_tol=1e-15))
    assert abs(thermo.p_gs - tight.p_gs) < 1e-10 and thermo.norm_drift < 1e-9


@pytest.mark.parametrize(
    "g0, gf, duration, name",
    [
        (math.nan, 0.0, 1.0, "g0"),
        (math.inf, 0.0, 1.0, "g0"),
        (5.0, math.inf, 1.0, "gf"),
        (5.0, math.nan, 1.0, "gf"),
        (5.0, 0.0, math.nan, "duration"),
        (5.0, 0.0, math.inf, "duration"),
        # the rate divides by duration**3, which underflows or overflows here
        (5.0, 0.0, 1e-120, "duration"),
        (5.0, 0.0, 1e200, "duration"),
        # the drive squares the field, which overflows here
        (1e200, 0.0, 1.0, "g0"),
        (5.0, 1e200, 1.0, "gf"),
    ],
)
def test_schedule_rejects_nonfinite_fields_and_unrepresentable_durations(g0, gf, duration, name):
    with pytest.raises(ValueError, match=f"schedule {name} "):
        Schedule(g0, gf, duration)


def test_schedule_duration_range_edges_give_finite_rates():
    for duration in (1e-100, 1e100):
        ramp = Schedule(5.0, 0.0, duration)
        rate = ramp.ramp(0.5 * duration)[1]
        assert math.isfinite(rate) and rate < 0


def test_schedule_field_bound_runs_every_family_clean():
    # RuntimeWarnings fail the suite, so an overflowing g*g would show here
    for model in (EXACT, CouplingModel(CouplingKind.THERMODYNAMIC),
                  CouplingModel(CouplingKind.TRUNCATED, 1), CouplingModel(CouplingKind.DIRECT_SUM)):
        result = evolve_chain(ChainConfig(4, Schedule(1e100, 0.0, 1.0), model))
        assert 0.0 <= result.p_gs <= 1.0 + 1e-12


def test_chain_config_validation():
    ramp = Schedule(5.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ChainConfig(5, ramp, EXACT)
    for name in ("rel_tol", "abs_tol"):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                ChainConfig(4, ramp, EXACT, **{name: bad})
    # the truncation range is checked by CouplingModel.check, with the coefficients' message
    with pytest.raises(ValueError, match=r"^truncation range m_max=3 outside \[0, 2\]$"):
        ChainConfig(4, ramp, CouplingModel(CouplingKind.TRUNCATED, 3))
    ChainConfig(4, ramp, CouplingModel(CouplingKind.TRUNCATED, 2))


@pytest.mark.parametrize("samples", [0, 1, -3])
def test_evolve_chain_rejects_fewer_than_two_samples(samples):
    # None asks for no trace; every number below 2 gets the same message
    config = ChainConfig(4, Schedule(5.0, 0.0, 1.0), EXACT)
    with pytest.raises(ValueError, match=rf"^trace needs at least 2 samples, got {samples}$"):
        evolve_chain(config, samples)


def test_rel_tol_floor_is_100_machine_epsilons():
    ramp = Schedule(5.0, 0.0, 1.0)
    assert MIN_REL_TOL == 2.220446049250313e-14
    with pytest.raises(ValueError, match=r"^rel_tol must be at least 2\.220446049250313e-14, got 1e-16$"):
        ChainConfig(20, ramp, THERMO, rel_tol=1e-16)
    with pytest.raises(ValueError, match="rel_tol"):
        ChainConfig(20, ramp, THERMO, rel_tol=np.nextafter(MIN_REL_TOL, 0.0))
    # exactly the floor runs, at that tolerance
    result = evolve_chain(ChainConfig(20, ramp, THERMO, rel_tol=2.220446049250313e-14))
    assert 0.0 <= result.p_gs <= 1.0 and result.steps > 0


def test_cd_drive_exact_values():
    assert math.isclose(cd_drive_exact(math.pi / 2, 1.0), 0.125, rel_tol=1e-15)
    for k in momentum_grid(8):
        assert math.isclose(cd_drive_exact(k, 0.0), 0.25 * math.sin(k), rel_tol=1e-15)


def test_cd_drive_exact_matches_coupling_sum():
    for g in (0.0, 0.5, 1.0, 2.5):
        for k in momentum_grid(10):
            literal = cd_drive_from_couplings(k, g, EXACT, 10)
            assert abs(cd_drive_exact(k, g) - literal) < 1e-12


@pytest.mark.parametrize(
    "n, g", [(2, 0.0), (8, 1.0), (16, 2.0), (64, 0.95), (64, 3.3), (200, 0.5), (200, 1.0)]
)
def test_coupling_sums_and_ground_energy_share_the_chain_denominator(n, g):
    # the direct couplings are the grid sine transform of the exact drive,
    # and the ground energy sums the chain's mode gaps, bit for bit
    ks = momentum_grid(n)
    ms = np.arange(n + 1)
    transform = (np.sin(np.multiply.outer(ms, ks)) * (4.0 * cd_drive_exact(ks, g))).sum(axis=-1)
    assert np.array_equal(coupling_sum(ms, g, n), transform / (2.0 * n))
    gaps = np.sqrt(_denominator(g, np.cos(ks)))
    assert dispersion_ground_energy(n, g) == -2.0 * float(gaps.sum())


def test_cd_drive_thermo_matches_coupling_sum():
    for n in (10, 20):
        for g in (0.3, 0.9, 1.0, 1.2, 4.0):
            for k in momentum_grid(n):
                literal = cd_drive_from_couplings(k, g, THERMO, n)
                assert abs(cd_drive_thermo(k, g, n) - literal) < 1e-12


def test_cd_drive_thermo_reduces_to_exact_at_critical_field():
    for k in momentum_grid(12):
        assert cd_drive_thermo(k, 1.0, 12) == cd_drive_exact(k, 1.0)


def _den(k, g):
    # the denominator g^2 - 2g cos k + 1 of every drive kernel, as the chain
    # RHS computes it once per field
    return (g * g + 1.0) - 2.0 * g * np.cos(k)


def _residual(model, n, k, g):
    return drive_function(model, n, k)(g, _den(k, g))


def _truncated(m_max):
    return CouplingModel(CouplingKind.TRUNCATED, m_max)


def test_truncated_drive_matches_literal_sum():
    # the drive the residual stands for, q = q_exact + residual
    n = 10
    for m_max in (1, 2, 4):
        for k in momentum_grid(n):
            for g in (0.4, 1.0, 2.2):
                literal = 2.0 * sum(
                    coupling_exact(m, g, n) * math.sin(m * k) for m in range(1, m_max + 1)
                )
                q = cd_drive_exact(k, g) + _residual(_truncated(m_max), n, k, g)
                assert abs(q - literal) < 1e-12


def test_drive_kernels_accept_arrays_and_scalars():
    n = 10
    ks = momentum_grid(n)
    models = [EXACT, THERMO, CouplingModel(CouplingKind.DIRECT_SUM)]
    models += [_truncated(m) for m in range(n // 2 + 1)]
    for model in models:
        drive = drive_function(model, n, ks)
        scalars = [drive_function(model, n, k) for k in ks]
        for g in (0.0, 0.4, 1.0, 2.2):
            # the exact residual is the scalar 0.0, which broadcasts
            batch = np.broadcast_to(drive(g, _den(ks, g)), ks.shape)
            for k, scalar, value in zip(ks, scalars, batch):
                assert abs(scalar(g, _den(k, g)) - value) <= 1e-15
    # the direct family's drive against the literal per-momentum coupling sum
    for g in (0.0, 0.4, 1.0, 2.2):
        h = [coupling_sum(m, g, n) for m in range(1, n // 2 + 1)]
        batch = cd_drive_from_couplings(ks, g, CouplingModel(CouplingKind.DIRECT_SUM), n)
        for k, value in zip(ks, batch):
            literal = 0.0
            for m in range(1, n // 2):
                literal += 2.0 * h[m - 1] * math.sin(k * m)
            literal += h[-1] * math.sin(k * (n // 2))
            assert abs(value - literal) <= 1e-15


@pytest.mark.parametrize("n", [2, 8, 200])
def test_drive_from_couplings_on_the_grid_is_each_momentums_sum_bitwise(n):
    # verify sums the whole grid in one call and the tests call single
    # momenta; each row of the grid's sum must be its momentum's bit for bit
    ks = momentum_grid(n)
    for model in (EXACT, THERMO, CouplingModel(CouplingKind.DIRECT_SUM), _truncated(n // 4)):
        for g in (0.0, 0.4, 1.0, 2.2):
            grid = cd_drive_from_couplings(ks, g, model, n)
            each = [cd_drive_from_couplings(float(k), g, model, n) for k in ks]
            assert grid.tobytes() == np.array(each).tobytes(), (model, g)


@pytest.mark.parametrize("n", [2, 20, 200])
def test_column_kernel_is_the_scalar_kernel_bitwise(n):
    # the chain's clock hands each residual kernel a column of fields, one
    # per stage time; every row must be the scalar call's, whose bits the
    # solves were pinned with. The fields include 0, where no kernel may
    # form 1/g (RuntimeWarnings fail the suite), and 1 with its neighbours,
    # where the thermodynamic and truncated kernels change branch. numpy's
    # array power differs from libm's pow in the last place on a few
    # percent of fields; the random fields show that in the truncated
    # kernel's weights (the thermodynamic factor's last place mostly
    # rounds away in its sum).
    ks = momentum_grid(n)
    fields = [0.0, 0.4, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.2, 5.0]
    fields += np.random.default_rng(3).uniform(0.0, 2.0, 200).tolist()
    column = np.array(fields)[:, None]
    models = [EXACT, THERMO, CouplingModel(CouplingKind.DIRECT_SUM)]
    models += [_truncated(m) for m in (0, 1, n // 2)]
    for model in models:
        drive = drive_function(model, n, ks)
        rows = np.broadcast_to(drive(column, _den(ks, column)), (len(fields), ks.size))
        for g, row in zip(fields, rows):
            scalar = np.broadcast_to(drive(float(g), _den(ks, float(g))), ks.shape)
            assert row.tobytes() == scalar.tobytes(), (model, g)


@pytest.mark.parametrize("n", [2, 20, 200])
def test_chains_clock_is_the_schedule_ramp_bitwise(n):
    # the chains' clock reads the ramps of all its members on arrays of stage
    # times: 1-D times for a lone member, (S, b) for b stacked ones. Each row
    # must be what Schedule.ramp gives at that time in Python floats, through
    # the shared denominator and the member's residual kernel, on both sides
    # of g = 1 and at the crossing itself
    ks = momentum_grid(n)
    configs = [
        ChainConfig(n, Schedule(DEFAULT_G0, DEFAULT_GF, DEFAULT_T_FINAL), THERMO),
        ChainConfig(n, Schedule(0.0, 5.0, 3.0), _truncated(0)),
        ChainConfig(n, Schedule(0.2, 0.9, 7.0), THERMO),
        ChainConfig(n, Schedule(1.5, 4.0, 2.0), _truncated(n // 4)),
        ChainConfig(n, Schedule(3.0, 1.0, 5.0), EXACT),
    ]
    _, clock, _, _ = _chains(configs)
    rng = np.random.default_rng(5)

    def times_of(config, size):
        duration = config.schedule.duration
        return np.concatenate(([0.0, duration], config.schedule.crossings(), rng.uniform(0.0, duration, size)))

    def assert_rows(config, times, rows):
        assert rows.shape == (len(times), 2, ks.size)
        for t, row in zip(times.tolist(), rows):
            g, gdot = config.schedule.ramp(t)
            den = _denominator(g, np.cos(ks))
            residual = drive_function(config.coupling, n, ks)(g, den)
            assert row[0].tobytes() == np.broadcast_to(2.0 * gdot * residual, ks.shape).tobytes(), (config, t)
            assert row[1].tobytes() == (2.0 * np.sqrt(den)).tobytes(), (config, t)

    for j, config in enumerate(configs):
        times = times_of(config, 30)
        assert_rows(config, times, clock([j])(times))
    members = [4, 0, 3, 2]
    times = np.column_stack([times_of(configs[j], 30)[-12:] for j in members])
    rows = clock(members)(times)
    for column, j in enumerate(members):
        assert_rows(configs[j], times[:, column], rows[..., column])


def test_truncated_drive_endpoints():
    # m_max = 0 keeps no coupling, so its residual is minus the exact drive;
    # the full range keeps the exact couplings, so its residual is 0
    n = 8
    for k in momentum_grid(n):
        exact = cd_drive_exact(k, 0.7)
        assert abs(_residual(_truncated(0), n, k, 0.7) + exact) <= 4 * np.spacing(exact)
        assert _residual(_truncated(n // 2), n, k, 0.7) == 0.0


# The drive kernels as written before their momentum factors were taken once
# per chain: every trig call inside the kernel, every operation in the same
# order. The residual kernels must reproduce their differences bit for bit,
# so the chain integrations (which feed these values to an adaptive solver)
# do too.
def _literal_exact(k, g):
    return 0.25 * np.sin(k) / ((g * g + 1.0) - 2.0 * g * np.cos(k))


def _literal_thermo(k, g, n):
    if g < 1.0:
        scale = g ** (n // 2 - 1) / 8.0 * (g * g - 1.0)
    else:
        scale = -(g ** (-(n // 2)) / (8.0 * g)) * (g * g - 1.0)
    return (0.25 * np.sin(k) + scale * np.sin(0.5 * n * k)) / ((g * g + 1.0) - 2.0 * g * np.cos(k))


# The complex geometric resummation of the truncated drive that the chain
# RHS used before the real closed form of its residual; kept as the
# accuracy comparison for that form.
def _literal_truncated(k, g, n, m_max):
    if g > 1.0:
        return _literal_truncated(k, 1.0 / g, n, m_max) / (g * g)
    phase = np.exp(1j * k)
    turn = np.exp(1j * m_max * k)
    power = g**m_max
    w = 1.0 / (1.0 - g * phase)
    head = ((phase - power * phase * turn) * w).imag
    tail = ((turn - power) * w.conj()).imag
    return (head + g ** (n - 1 - m_max) * tail) / (4.0 * (1.0 + g**n))


def _literal_tail(k, g, n, m_max):
    # truncated minus exact drive: minus the exact couplings beyond m_max,
    # summed literally (the range n/2 at half weight)
    ms = np.arange(m_max + 1, n // 2 + 1)
    weights = 2.0 * coupling_exact(ms, g, n)
    weights[-1] *= 0.5
    return -(np.sin(np.multiply.outer(k, ms)) * weights).sum(axis=-1)


@pytest.mark.parametrize("n", [2, 20, 200])
def test_per_chain_kernels_match_literal_kernels_bitwise(n):
    ks = momentum_grid(n)
    # the direct couplings resum to the exact drive on the grid, as the full
    # range of the exact ones does, so both integrate the zero residual
    literal = {
        EXACT: _literal_exact,
        THERMO: lambda k, g: _literal_thermo(k, g, n),
        CouplingModel(CouplingKind.DIRECT_SUM): _literal_exact,
        _truncated(n // 2): _literal_exact,
    }
    for g in (0.0, 0.3, 1.0, 1.7, 5.0):
        assert np.array_equal(cd_drive_exact(ks, g), _literal_exact(ks, g))
        assert np.array_equal(cd_drive_thermo(ks, g, n), _literal_thermo(ks, g, n))
        for model, reference in literal.items():
            residual = np.broadcast_to(_residual(model, n, ks, g), ks.shape)
            assert np.array_equal(residual, reference(ks, g) - _literal_exact(ks, g)), (model, g)
        # below full range: the closed form against the literal coupling tail,
        # absolute below unit scale and relative above it
        scale = np.maximum(1.0, np.abs(_literal_exact(ks, g)))
        for m_max in sorted({0, min(1, n // 2 - 1), n // 4, n // 2 - 1}):
            error = np.abs(_residual(_truncated(m_max), n, ks, g) - _literal_tail(ks, g, n, m_max))
            assert np.all(error <= 1e-12 * scale), (m_max, g)


@pytest.mark.parametrize("m_max", [3, 500, 999])
@pytest.mark.parametrize("g", [0.999999, 1.000001])
def test_truncated_residual_near_critical_field_against_mpmath(m_max, g):
    # n = 2000 with a slowly decaying tail: the closed form must be no less
    # accurate than the complex resummation minus the exact drive (what the
    # chain RHS integrated before). The reference is the literal tail at the
    # exact grid momenta in 30 digits; errors are relative to the larger of
    # |q_exact| and |residual|, the scale the RHS works at.
    n = 2000
    index = np.r_[0:4, 100 : n // 2 : 100, n // 2 - 4 : n // 2]
    ks = momentum_grid(n)[index]
    closed = _residual(_truncated(m_max), n, ks, g)
    resummed = _literal_truncated(ks, g, n, m_max) - _literal_exact(ks, g)
    worst = {"closed": 0.0, "resummed": 0.0}
    with mpmath.workdps(30):
        field = mpmath.mpf(g)
        u = min(field, 1 / field)
        coupling = [(u ** (m - 1) + u ** (n - m - 1)) / (8 * (1 + u**n)) / max(1, field**2)
                    for m in range(n // 2 + 1)]
        for i, j in enumerate(index):
            k = mpmath.pi * (2 * int(j) + 1) / n
            tail = mpmath.fsum(2 * coupling[m] * mpmath.sin(m * k) for m in range(m_max + 1, n // 2))
            reference = -(tail + coupling[n // 2] * mpmath.sin(n * k / 2))
            scale = max(abs(reference), abs(mpmath.sin(k) / (4 * (field**2 + 1 - 2 * field * mpmath.cos(k)))))
            worst["closed"] = max(worst["closed"], float(abs(closed[i] - reference) / scale))
            worst["resummed"] = max(worst["resummed"], float(abs(resummed[i] - reference) / scale))
    assert worst["closed"] <= worst["resummed"], worst
    assert worst["closed"] < 1e-10, worst


@pytest.mark.parametrize("n", [2, 20, 200])
def test_truncated_residual_edge_fields(n):
    # RuntimeWarnings fail the suite, so an overflow or 0/0 would show here
    ks = momentum_grid(n)
    for g in (0.0, 1e-150, 1.0, 1e100):
        for m_max in sorted({0, n // 2 - 1, n // 2}):
            assert np.all(np.isfinite(_residual(_truncated(m_max), n, ks, g))), (m_max, g)
        exact = _literal_exact(ks, g)
        assert np.all(np.abs(_residual(_truncated(0), n, ks, g) + exact) <= 4 * np.spacing(exact)), g


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    chain=st.integers(1, 100).flatmap(
        lambda half: st.tuples(st.just(2 * half), st.integers(0, half - 1))
    ),
    g=st.floats(0.0, 6.0),
)
@example(chain=(2, 0), g=0.0)
@example(chain=(200, 99), g=1.0)
# near the worst case of a 4,000-draw scan: small k next to g = 1
@example(chain=(198, 11), g=1.000000251771798)
def test_truncated_residual_matches_literal_tail(chain, g):
    # At small k next to g = 1 the shared denominator loses digits to
    # cancellation: up to about 1.6e-12 of q_exact at n <= 200, the same
    # as the complex resummation minus the exact drive. The literal tail
    # divides by no denominator.
    n, m_max = chain
    ks = momentum_grid(n)
    scale = np.maximum(1.0, np.abs(_literal_exact(ks, g)))
    error = np.abs(_residual(_truncated(m_max), n, ks, g) - _literal_tail(ks, g, n, m_max))
    assert np.all(error <= 4e-12 * scale)


def test_constant_schedule_keeps_ground_state():
    config = ChainConfig(4, Schedule(2.0, 2.0, 1.0), EXACT)
    result = evolve_chain(config)
    assert abs(result.p_gs - 1.0) < 1e-10


def test_ground_state_probability_is_the_product_of_ground_populations():
    # frames [d_g..., d_e..., phi...]: only d_g enters, one probability per row
    frames = np.array([
        [1.0, 0.6j, 0.0, 0.8, 0.3, 2.0],
        [0.8, -0.6, 0.6j, 0.8, -1.0, 5.0],
    ])
    assert np.allclose(ground_state_probability(frames), [0.36, 0.64 * 0.36], rtol=0, atol=1e-15)
    assert ground_state_probability(frames[0]) == ground_state_probability(frames)[0]


def test_evolve_chain_exact_preparation():
    config = ChainConfig(4, Schedule(5.0, 0.0, 1.0), EXACT)
    result = evolve_chain(config)
    assert abs(result.p_gs - 1.0) < 1e-8
    assert result.trace is None
    assert result.norm_drift < 1e-9
    assert 0.0 <= result.p_gs <= 1.0 + 1e-9


def test_full_truncation_equals_exact_bitwise():
    ramp = Schedule(5.0, 0.0, 1.0)
    exact = evolve_chain(ChainConfig(6, ramp, EXACT))
    full = evolve_chain(ChainConfig(6, ramp, CouplingModel(CouplingKind.TRUNCATED, 3)))
    assert exact.p_gs == full.p_gs


def test_evolve_chain_deterministic():
    config = ChainConfig(6, Schedule(4.0, 0.0, 1.0), THERMO)
    first = evolve_chain(config)
    second = evolve_chain(config)
    assert first.p_gs == second.p_gs
    assert first.steps == second.steps


def test_trace_shape_and_endpoints():
    config = ChainConfig(6, Schedule(3.0, 0.0, 1.0), THERMO)
    result = evolve_chain(config, 9)
    assert result.trace is not None and len(result.trace) == 9
    times = [t for t, _, _ in result.trace]
    assert times[0] == 0.0 and times[-1] == 1.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert abs(result.trace[0][2] - 1.0) < 1e-12
    assert result.trace[0][1] == 3.0 and result.trace[-1][1] == 0.0
    assert result.p_gs == result.trace[-1][2]
    assert all(0.0 <= p <= 1.0 + 1e-9 for _, _, p in result.trace)


def test_reversed_ramp_exact_drive():
    for n in (2, 10, 40):
        result = evolve_chain(ChainConfig(n, Schedule(0.0, 5.0, 1.0), EXACT))
        assert abs(result.p_gs - 1.0) < 1e-8


@pytest.mark.parametrize(
    "n, model, t_final",
    [
        (200, THERMO, 10.0),
        (20, THERMO, 100.0),
        (20, CouplingModel(CouplingKind.TRUNCATED, 3), 10.0),
        (200, THERMO, 100.0),
        # lossy drives at extreme ramp times
        (200, THERMO, 1e-3),
        (200, THERMO, 1e3),
        (20, CouplingModel(CouplingKind.TRUNCATED, 3), 1e-3),
        # the worst rows of the benchmark's sweep before the restart at g = 1
        (200, THERMO, 1.0),
        (20, THERMO, 10.0),
    ],
)
def test_batched_accuracy_against_tight_reference(n, model, t_final):
    # the batch shares one RMS error norm over all modes; the default
    # tolerances must still hold each result to 1e-10 of a converged run
    # (thermo n=200, T=100 converges to 0.958872619)
    ramp = Schedule(5.0, 0.0, t_final)
    default = evolve_chain(ChainConfig(n, ramp, model))
    tight = evolve_chain(ChainConfig(n, ramp, model, rel_tol=1e-13, abs_tol=1e-15))
    assert abs(default.p_gs - tight.p_gs) < 1e-10
    traced = evolve_chain(ChainConfig(n, ramp, model), 11)
    assert abs(traced.trace[-1][2] - default.p_gs) < 1e-10


def test_traced_and_direct_evolution_agree():
    ramp = Schedule(4.0, 0.0, 1.0)
    direct = evolve_chain(ChainConfig(4, ramp, THERMO))
    with mock.patch.object(_dop853, "_evaluate", wraps=_dop853._evaluate) as evaluate:
        traced = evolve_chain(ChainConfig(4, ramp, THERMO), 5)
    # the same solve either way: the traced run also reads its final state
    # from the last accepted step, and its samples read the interpolant,
    # which costs DOP853's 3 extra stages on each step that holds a sample
    # and moves no step
    assert traced.p_gs == direct.p_gs and traced.steps == direct.steps
    assert traced.nfev - direct.nfev == 3 * evaluate.call_count


@pytest.mark.parametrize(
    "model, rejected",
    [
        (EXACT, 7),
        (CouplingModel(CouplingKind.DIRECT_SUM), 7),
        (THERMO, 9),
        (CouplingModel(CouplingKind.TRUNCATED, 3), 1),
    ],
    ids=lambda value: value.label() if isinstance(value, CouplingModel) else str(value),
)
def test_rejected_steps_close_the_rhs_count(model, rejected):
    # 2 evaluations choose the first step of each segment (the ramp crosses
    # g = 1 once, so there are two), every attempted step costs 12 and every
    # accepted one that holds a sample 3 more, for the interpolant it reads
    # (one _evaluate call); the counts were checked against scipy's DOP853,
    # which reports only nfev and the steps
    ramp = Schedule(5.0, 0.0, 10.0)
    segments = 1 + len(ramp.crossings())
    assert segments == 2
    for trace_points in (None, 5):
        with mock.patch.object(_dop853, "_evaluate", wraps=_dop853._evaluate) as evaluate:
            result = evolve_chain(ChainConfig(20, ramp, model), trace_points)
        assert result.rejected == rejected
        extra = 3 * evaluate.call_count
        assert result.nfev == 2 * segments + 12 * (result.steps + result.rejected) + extra


def test_integration_error_is_a_runtime_error():
    assert issubclass(IntegrationError, RuntimeError)


def test_dispersion_ground_energy():
    assert math.isclose(dispersion_ground_energy(2, 0.0), -2.0, rel_tol=1e-15)
    assert math.isclose(dispersion_ground_energy(2, 2.0), -2.0 * math.sqrt(5.0), rel_tol=1e-15)
    assert math.isclose(dispersion_ground_energy(4, 0.0), -4.0, rel_tol=1e-15)
    for field in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="field g must be finite and nonnegative"):
            dispersion_ground_energy(4, field)


def test_dispersion_ground_energy_matches_mode_loop():
    # the numpy sum against an exactly rounded sum of the mode energies
    for n in (8, 200):
        for g in (0.3, 1.0, 1.7):
            modes = [math.sqrt(g * g - 2.0 * g * math.cos(k) + 1.0) for k in momentum_grid(n)]
            assert math.isclose(dispersion_ground_energy(n, g), -2.0 * math.fsum(modes), rel_tol=1e-14)
