"""The package's DOP853 against scipy's, bit for bit.

cdising integrates with its own numpy-only copy of scipy's DOP853 step loop,
so that importing the package loads no scipy.integrate. These tests run both
on the same right-hand sides, the chain RHS of every coupling model and the
spin oracle's, and require equal bits: final state, RHS evaluations,
accepted steps, largest norm drift and the states the loop samples from
its dense output, against scipy's solve at t_eval = the samples. Where the
ramp crosses the critical field g = 1 the loop restarts there, and the
reference is two consecutive scipy solves split at that time. scipy stays
a test dependency for this reference.
"""

from __future__ import annotations

import functools
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from cdising import ChainConfig, CouplingKind, CouplingModel, Schedule, dense_evolve, evolve_chain
from cdising import _dop853, dynamics, spin_oracle

MODELS = [
    CouplingModel(CouplingKind.EXACT),
    CouplingModel(CouplingKind.DIRECT_SUM),
    CouplingModel(CouplingKind.THERMODYNAMIC),
    CouplingModel(CouplingKind.TRUNCATED, 1),
]
RAMPS = [(5.0, 0.0), (0.0, 5.0), (1.5, 1.5)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def captured_solves(monkeypatch, module, run) -> list[tuple]:
    """(fun, args, kwargs, result) of every module.solve_ivp call that run() makes."""
    calls = []

    def recording(fun, *args, **kwargs):
        result = _dop853.solve_ivp(fun, *args, **kwargs)
        calls.append((fun, args, kwargs, result))
        return result

    monkeypatch.setattr(module, "solve_ivp", recording)
    run()
    return calls


def scipy_reference(fun, args, kwargs, t_eval=None) -> SimpleNamespace:
    """scipy's DOP853 over each segment of a captured call in turn, as one solve.

    A segment ends on each of the call's breaks, and the next one is a new
    scipy solve from the state there. t and y hold the accepted times and
    states (each break once), nfev the segments' sum. With t_eval, each
    segment also reads the samples up to its end that no earlier one read,
    as a scipy solve at t_eval = those samples, which sets nfev and the
    samples (one row each); the states come from the unsampled solves.
    """
    (t0, t1), y = args
    # scipy takes the RHS whole: the call's clock composed with its state part
    clock = kwargs.get("clock")
    rhs = fun if clock is None else lambda t, y: fun(clock(np.minimum([t], t1))[0], y)
    ends = [*kwargs.get("breaks", ()), t1]
    times = np.asarray([] if t_eval is None else t_eval, dtype=float)
    cuts = np.searchsorted(times, ends, side="right")
    ts, ys, samples, nfev, start = [[t0]], [np.asarray(y)[:, None]], [], 0, t0
    for end, first, last in zip(ends, [0, *cuts], cuts):
        solve = functools.partial(
            scipy_solve_ivp, rhs, (start, end), y, method="DOP853", rtol=kwargs["rtol"], atol=kwargs["atol"]
        )
        part = solve()
        assert part.success
        if t_eval is None:
            nfev += part.nfev
        else:
            sampled = solve(t_eval=times[first:last])
            nfev += sampled.nfev
            samples.append(sampled.y.T)
        ts.append(part.t[1:])
        ys.append(part.y[:, 1:])
        start, y = end, part.y[:, -1]
    return SimpleNamespace(
        success=part.success, message=part.message, t=np.concatenate(ts), y=np.hstack(ys), nfev=nfev,
        samples=None if t_eval is None else np.concatenate(samples),
    )


def assert_same_solve(ours, ref) -> None:
    """ours against a scipy_reference: final state and time, steps, nfev
    and, for a sampled reference, the samples."""
    assert ours.success and ref.success
    assert ours.message == ref.message
    assert same_bits(ours.y, ref.y[:, -1])
    assert ours.t == ref.t[-1]
    assert ours.steps == ref.t.size - 1
    assert ours.nfev == ref.nfev
    if ref.samples is not None:
        assert same_bits(ours.samples, ref.samples)


def sample_times(ts: np.ndarray) -> np.ndarray:
    # both ends, every interior step boundary and two points inside each step
    inside = np.concatenate((ts[:-1] + 0.25 * np.diff(ts), ts[:-1] + 0.5 * np.diff(ts)))
    return np.sort(np.concatenate((ts, inside)))


def rerun(fun, args, kwargs, samples):
    """Our solve of a captured call again, reading the given samples."""
    return _dop853.solve_ivp(fun, *args, **{**kwargs, "samples": samples})


@pytest.mark.parametrize("n", [2, 20, 200])
@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.label())
@pytest.mark.parametrize("g0, gf", RAMPS)
def test_chain_solve_is_scipys_bit_for_bit(n, model, g0, gf, monkeypatch):
    config = ChainConfig(n, Schedule(g0, gf, 10.0), model)
    (fun, args, kwargs, ours), = captured_solves(
        monkeypatch, dynamics, lambda: evolve_chain(config, 5)
    )
    # the (1.5, 1.5) ramp never crosses g = 1: one scipy solve
    assert len(kwargs["breaks"]) == (g0 != gf)
    ref = scipy_reference(fun, args, kwargs)
    assert_same_solve(ours, scipy_reference(fun, args, kwargs, t_eval=kwargs["samples"]))
    half = n // 2
    # scipy keeps every accepted state; one max over all of them is the drift
    norms = np.abs(ref.y[:half]) ** 2 + np.abs(ref.y[half : 2 * half]) ** 2
    assert ours.drift == float(np.max(np.abs(norms - 1.0)))
    # the same solve, sampled at both ends, every step boundary (the break
    # included) and inside every step
    times = sample_times(ref.t)
    assert set(kwargs["breaks"]) <= set(times)
    sampled = rerun(fun, args, kwargs, times)
    assert_same_solve(sampled, scipy_reference(fun, args, kwargs, t_eval=times))
    assert sampled.drift == ours.drift


@pytest.mark.parametrize("model", MODELS[:3], ids=lambda model: model.label())
def test_final_only_chain_solve_is_scipys_bit_for_bit(model, monkeypatch):
    config = ChainConfig(20, Schedule(5.0, 0.0, 10.0), model)
    (fun, args, kwargs, ours), = captured_solves(
        monkeypatch, dynamics, lambda: evolve_chain(config)
    )
    assert ours.samples.shape == (0, ours.y.size)
    assert len(kwargs["breaks"]) == 1
    assert_same_solve(ours, scipy_reference(fun, args, kwargs))


@pytest.mark.parametrize(
    "model, g0, gf",
    [(CouplingModel(CouplingKind.EXACT), 5.0, 0.0), (CouplingModel(CouplingKind.DIRECT_SUM), 0.0, 5.0),
     (CouplingModel(CouplingKind.TRUNCATED, 1), 1.5, 1.5)],
    ids=["exact", "direct", "truncated-constant"],
)
def test_oracle_solve_is_scipys_bit_for_bit(model, g0, gf, monkeypatch):
    config = ChainConfig(4, Schedule(g0, gf, 2.0), model)
    (fun, args, kwargs, ours), = captured_solves(
        monkeypatch, spin_oracle, lambda: dense_evolve(config)
    )
    assert len(kwargs["breaks"]) == (g0 != gf)
    assert_same_solve(ours, scipy_reference(fun, args, kwargs))


def test_too_small_step_fails_like_scipy():
    # y' = y^2, y(0) = 1 is 1 / (1 - t): it blows up at t = 1, short of t = 2
    def fun(t, y):
        return y * y

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = _dop853.solve_ivp(fun, (0.0, 2.0), [1.0 + 0j], rtol=1e-10, atol=1e-12)
        ref = scipy_solve_ivp(fun, (0.0, 2.0), [1.0 + 0j], method="DOP853", rtol=1e-10, atol=1e-12)
    assert not ours.success and not ref.success
    assert ours.message == ref.message == "Required step size is less than spacing between numbers."
    assert ours.t == ref.t[-1] and abs(ours.t - 1.0) < 1e-6
    assert same_bits(ours.y, ref.y[:, -1])
    assert ours.nfev == ref.nfev and ours.steps == ref.t.size - 1
    assert ours.nfev == 2 + 12 * (ours.steps + ours.rejected)


def test_failed_solve_reads_the_samples_it_passed():
    # the blow-up of y' = y^2 at t = 1 stops the solve before the last sample
    def fun(t, y):
        return y * y

    samples = [0.0, 0.5, 0.9, 1.5]
    evaluate = mock.patch.object(_dop853, "_evaluate", wraps=_dop853._evaluate)
    with warnings.catch_warnings(), evaluate as evaluations:
        warnings.simplefilter("error")
        ours = _dop853.solve_ivp(fun, (0.0, 2.0), [1.0 + 0j], rtol=1e-10, atol=1e-12, samples=samples)
        ref = scipy_solve_ivp(fun, (0.0, 2.0), [1.0 + 0j], method="DOP853", rtol=1e-10, atol=1e-12)
        sampled = scipy_solve_ivp(
            fun, (0.0, 2.0), [1.0 + 0j], method="DOP853", rtol=1e-10, atol=1e-12, t_eval=samples
        )
    assert not ours.success and not ref.success and not sampled.success
    assert same_bits(ours.y, ref.y[:, -1]) and ours.steps == ref.t.size - 1
    assert ours.nfev == sampled.nfev == 6419
    assert ours.nfev == 2 + 12 * (ours.steps + ours.rejected) + 3 * evaluations.call_count
    # the rows of the samples it reached, none for the one past the blow-up
    assert ours.samples.shape == (3, 1)
    assert same_bits(ours.samples, sampled.y.T)


def test_boundary_sample_reads_the_earlier_step_like_scipy(monkeypatch):
    # On a step boundary the earlier step's polynomial gives
    # y_old + (y_new - y_old) and the later one y_new. With y_new rounded
    # from y_old plus an increment, the two came out the same bits at every
    # boundary of the pinned solves, so the values cannot show which step a
    # boundary sample reads, and the evaluations are checked instead: each
    # sample must come from the step that ends at or after it, at x = 1 on
    # a boundary, and t0 from the first step, as in scipy's t_eval solve.
    # The ramp crosses g = 1, so one boundary is the break, where the first
    # of two scipy solves ends.
    config = ChainConfig(20, Schedule(5.0, 0.0, 10.0), MODELS[2])
    (fun, args, kwargs, _), = captured_solves(monkeypatch, dynamics, lambda: evolve_chain(config, 5))
    ref = scipy_reference(fun, args, kwargs)
    (t_c,) = kwargs["breaks"]
    assert t_c in ref.t
    reads = []

    def recording(t_old, h, y_old, F, t):
        reads.extend((float(time), t_old, t_old + h) for time in t)
        return evaluate(t_old, h, y_old, F, t)

    evaluate = _dop853._evaluate
    monkeypatch.setattr(_dop853, "_evaluate", recording)
    ours = rerun(fun, args, kwargs, ref.t)
    assert same_bits(ours.samples, scipy_reference(fun, args, kwargs, t_eval=ref.t).samples)
    steps = list(zip(ref.t[:-1], ref.t[1:]))
    assert reads == [(ref.t[0], *steps[0])] + [(end, *step) for step, end in zip(steps, ref.t[1:])]
    # the sample at the break is read by the step of the earlier segment that ends there
    (at_break,) = [read for read in reads if read[0] == t_c]
    assert at_break[2] == t_c and at_break[1] < t_c


def test_breaks_must_lie_inside_the_span_in_order():
    for breaks in ((0.0,), (2.0,), (1.5, 0.5), (1.0, 1.0), (-1.0,)):
        with pytest.raises(ValueError, match="breaks must increase strictly inside"):
            _dop853.solve_ivp(lambda t, y: y, (0.0, 2.0), [1.0], rtol=1e-6, atol=1e-9, breaks=breaks)


def test_time_span_must_increase():
    with pytest.raises(ValueError, match="t_span must increase"):
        _dop853.solve_ivp(lambda t, y: y, (1.0, 1.0), [1.0], rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("trace_points", [None, 5], ids=["final-only", "traced"])
def test_chain_clock_runs_once_per_step(trace_points, monkeypatch):
    # the chain's time-only work runs once per step on its 12 stage times,
    # once per step that holds a sample on the 3 extended ones, and on the
    # single time of each segment's start and first-step probe
    config = ChainConfig(20, Schedule(5.0, 0.0, 10.0), MODELS[2])
    sizes = []

    def counting(fun, *args, clock, **kwargs):
        def counted(times):
            sizes.append(len(times))
            return clock(times)

        return _dop853.solve_ivp(fun, *args, clock=counted, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    with mock.patch.object(_dop853, "_evaluate", wraps=_dop853._evaluate) as evaluations:
        result = evolve_chain(config, trace_points)
    segments, held = 2, evaluations.call_count  # the ramp crosses g = 1 once
    assert (held > 0) == (trace_points is not None)
    assert sorted(set(sizes)) == ([1, 12] if trace_points is None else [1, 3, 12])
    assert sizes.count(1) == 2 * segments
    assert sizes.count(12) == result.steps + result.rejected
    assert sizes.count(3) == held
    assert len(sizes) == 2 * segments + result.steps + result.rejected + held
    assert result.nfev == 2 * segments + 12 * (result.steps + result.rejected) + 3 * held


def test_oracle_clock_runs_once_per_step(monkeypatch):
    # the oracle's ramp read and couplings run on its clock: once per step on
    # the 12 stage times, and on the single time of each segment's start and
    # first-step probe; it reads no samples, so no step runs the extended
    # stages. Each clock call asks for the couplings once, on a column of
    # its times.
    config = ChainConfig(4, Schedule(5.0, 0.0, 2.0), MODELS[1])
    sizes, solves = [], []

    def counting(fun, *args, clock, **kwargs):
        def counted(times):
            sizes.append(len(times))
            return clock(times)

        solves.append(_dop853.solve_ivp(fun, *args, clock=counted, **kwargs))
        return solves[-1]

    monkeypatch.setattr(spin_oracle, "solve_ivp", counting)
    ramp = mock.patch.object(Schedule, "ramp", autospec=True, side_effect=Schedule.ramp)
    couplings = mock.patch.object(spin_oracle, "coupling_set", wraps=spin_oracle.coupling_set)
    with ramp as ramps, couplings as coupling_sets:
        dense_evolve(config)
    (sol,), segments = solves, 2  # the ramp crosses g = 1 once
    assert sorted(set(sizes)) == [1, 12]
    assert sizes.count(1) == 2 * segments
    assert sizes.count(12) == sol.steps + sol.rejected
    assert sol.nfev == 2 * segments + 12 * (sol.steps + sol.rejected)
    assert ramps.call_count == len(sizes)
    assert coupling_sets.call_count == len(sizes)
    fields = [call.args[1] for call in coupling_sets.call_args_list]
    assert [column.shape for column in fields] == [(size, 1) for size in sizes]


def test_loop_clamps_the_times_it_hands_its_clock():
    # y' = 1e-4 takes one step over (0.3, 0.9), where 0.3 + (0.9 - 0.3)
    # rounds past 0.9: the first-step probe and the last two stages, at
    # C = 1, all fall on t + h
    received = []

    def clock(times):
        received.extend(times)
        return np.asarray(times)

    assert 0.3 + (0.9 - 0.3) > 0.9
    sol = _dop853.solve_ivp(
        lambda t, y: np.full_like(y, 1e-4), (0.3, 0.9), [1.0], rtol=1e-3, atol=1e-6, clock=clock
    )
    assert sol.success and sol.steps == 1
    assert min(received) == 0.3 and max(received) == 0.9 and received.count(0.9) == 3


@pytest.mark.parametrize("g0, gf", RAMPS)
def test_clocks_receive_only_times_inside_the_span(g0, gf, monkeypatch):
    # every chain model, traced so that the extended stages run too, and the
    # oracle; no clock clamps, so a time past t1 would reach it
    spans = []

    def bounding(fun, t_span, *args, clock, **kwargs):
        def bounded(times):
            spans.append((t_span, min(times), max(times)))
            return clock(times)

        return _dop853.solve_ivp(fun, t_span, *args, clock=bounded, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", bounding)
    monkeypatch.setattr(spin_oracle, "solve_ivp", bounding)
    for model in MODELS:
        evolve_chain(ChainConfig(20, Schedule(g0, gf, 10.0), model), 5)
    dense_evolve(ChainConfig(4, Schedule(g0, gf, 2.0), MODELS[0]))
    assert len({t_span for t_span, _, _ in spans}) == 2  # the chain's span and the oracle's
    for (t0, t1), low, high in spans:
        assert t0 <= low and high <= t1


@pytest.mark.parametrize("n", [2, 4, 20, 200, 2000])
@pytest.mark.parametrize("b", [1, 2, 11, 101])
def test_batched_stage_products_are_each_solves_dot_bitwise(n, b):
    # The lockstep loop takes the stage sums, the 8th-order sum (weights B) and the
    # error estimates of b solves as one np.matmul over the (b, N, s) view
    # of its (b, 16, N) stages, where a lone solve takes np.dot over the
    # (N, s) view of its (16, N) stages, as scipy does. They agree bit for
    # bit on the BLAS numpy was built with here; numpy does not promise it,
    # so this pins it for every shape the chains use (N = 3 n/2).
    size = 3 * (n // 2)
    rng = np.random.default_rng(n + b)
    shape = (b, _dop853.N_STAGES + 1, size)
    K = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    K_t = K.swapaxes(-1, -2)
    weights = [_dop853.A[s, :s] for s in range(1, _dop853.N_STAGES)] + [_dop853.B, _dop853.E5, _dop853.E3]
    assert sorted({a.size for a in weights}) == list(range(1, 14))
    for a in weights:
        batched = np.matmul(K_t[..., : a.size], a)
        for row, solve in zip(batched, K):
            assert same_bits(row, np.dot(solve[: a.size].T, a))
    # the error norm stays one 1-D norm per solve, np.linalg.norm's own operations
    for row in np.matmul(K_t, _dop853.E5):
        assert same_bits(_dop853._norm(row), np.linalg.norm(row))


def test_lockstep_solves_are_their_solo_solves():
    # y' = c y^2 from y(0) = 1 blows up at t = 1/c: the solve with c = 1 ends
    # at its too-small step before t1 = 2, the others reach t1, on their own
    # spans, breaks, samples, tolerances and drift; the clock hands each
    # solve its c, one per stage time
    coefficients = np.array([0.3, 1.0, 0.1, 0.45])
    problems = [
        ((0.0, 2.0), 1e-10, 1e-12, [0.0, 0.4, 1.7], (0.5,)),
        ((0.0, 2.0), 1e-10, 1e-12, [0.5, 0.9, 1.5], ()),
        ((0.5, 1.25), 1e-6, 1e-9, [], (0.75, 1.0)),
        ((0.0, 1.0), 1e-12, 1e-14, np.linspace(0.0, 1.0, 9), ()),
    ]

    def fun(row, y):
        return row * y * y

    def clock(members):
        # a lone solve's rows are its c per time, b solves' one c per solve on a trailing axis
        c = coefficients[members] if len(members) > 1 else coefficients[members[0]]
        return lambda times: np.broadcast_to(c, times.shape)

    def drift(y):
        return float(abs(y[0]))

    def solve(span, rtol, atol, samples, breaks):
        return _dop853.Solve(span, [1.0 + 0j], rtol, atol, samples, drift, breaks)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = _dop853.solve_lockstep(fun, clock, [solve(*problem) for problem in problems])
        alone = [
            _dop853.solve_ivp(fun, span, [1.0 + 0j], rtol, atol, samples, drift, breaks, clock=clock([j]))
            for j, (span, rtol, atol, samples, breaks) in enumerate(problems)
        ]
    assert [sol.success for sol in together] == [True, False, True, True]
    for ours, ref in zip(together, alone):
        assert (ours.success, ours.message, ours.t) == (ref.success, ref.message, ref.t)
        assert same_bits(ours.y, ref.y) and same_bits(ours.samples, ref.samples)
        assert [ours.nfev, ours.steps, ours.rejected, ours.drift] == [
            ref.nfev, ref.steps, ref.rejected, ref.drift
        ]
