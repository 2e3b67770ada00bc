"""The package's DOP853 against scipy's, bit for bit.

cdising integrates with its own numpy-only copy of scipy's DOP853 step loop,
so that importing the package loads no scipy.integrate. These tests run both
on the same right-hand sides, the chain RHS of every coupling model and the
spin oracle's, and require equal bits: final state, RHS evaluations,
accepted steps, largest norm drift and the states the loop samples from
its dense output. scipy stays a test dependency for this reference.
"""

from __future__ import annotations

import warnings

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


def scipy_reference(fun, args, kwargs, dense_output=False):
    t_span, y0 = args
    return scipy_solve_ivp(
        fun, t_span, y0, method="DOP853", rtol=kwargs["rtol"], atol=kwargs["atol"],
        dense_output=dense_output,
    )


def assert_same_solve(ours, ref) -> None:
    assert ours.success and ref.success
    assert ours.message == ref.message
    assert same_bits(ours.y, ref.y[:, -1])
    assert ours.t == ref.t[-1]
    assert ours.nfev == ref.nfev
    assert ours.steps == ref.t.size - 1


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
    config = ChainConfig(n, Schedule(g0, gf, 10.0), model, trace_points=5)
    (fun, args, kwargs, ours), = captured_solves(
        monkeypatch, dynamics, lambda: evolve_chain(config)
    )
    ref = scipy_reference(fun, args, kwargs, dense_output=True)
    assert_same_solve(ours, ref)
    half = n // 2
    # scipy keeps every accepted state; one max over all of them is the drift
    norms = np.abs(ref.y[:half]) ** 2 + np.abs(ref.y[half : 2 * half]) ** 2
    assert ours.drift == float(np.max(np.abs(norms - 1.0)))
    assert same_bits(ours.samples, ref.sol(kwargs["samples"]).T)
    # the same solve, sampled at both ends, every step boundary and inside every step
    times = sample_times(ref.t)
    sampled = rerun(fun, args, kwargs, times)
    assert_same_solve(sampled, ref)
    assert sampled.drift == ours.drift
    assert same_bits(sampled.samples, ref.sol(times).T)


@pytest.mark.parametrize("model", MODELS[:3], ids=lambda model: model.label())
def test_final_only_chain_solve_is_scipys_bit_for_bit(model, monkeypatch):
    config = ChainConfig(20, Schedule(5.0, 0.0, 10.0), model)
    (fun, args, kwargs, ours), = captured_solves(
        monkeypatch, dynamics, lambda: evolve_chain(config)
    )
    assert ours.samples.shape == (0, ours.y.size)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = _dop853.solve_ivp(fun, (0.0, 2.0), [1.0 + 0j], rtol=1e-10, atol=1e-12, samples=samples)
        ref = scipy_solve_ivp(
            fun, (0.0, 2.0), [1.0 + 0j], method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True
        )
    assert not ours.success and not ref.success
    assert same_bits(ours.y, ref.y[:, -1])
    assert ours.nfev == ref.nfev == 2 + 12 * (ours.steps + ours.rejected) + 3 * ours.steps
    assert same_bits(ours.samples[:3], ref.sol(samples[:3]).T)
    assert np.isnan(ours.samples[3]).all()


def test_boundary_sample_reads_the_earlier_step_like_scipy(monkeypatch):
    # On a step boundary the earlier step's polynomial gives
    # y_old + (y_new - y_old) and the later one y_new. With y_new rounded
    # from y_old plus an increment, the two came out the same bits at every
    # boundary of the pinned solves, so the values cannot show which step a
    # boundary sample reads, and the evaluations are checked instead: each
    # sample must come from the step that ends at or after it, at x = 1 on
    # a boundary, and t0 from the first step, as in scipy's OdeSolution.
    config = ChainConfig(20, Schedule(5.0, 0.0, 10.0), MODELS[2], trace_points=5)
    (fun, args, kwargs, _), = captured_solves(monkeypatch, dynamics, lambda: evolve_chain(config))
    ref = scipy_reference(fun, args, kwargs, dense_output=True)
    reads = []

    def recording(t_old, h, y_old, F, t):
        reads.extend((float(time), t_old, t_old + h) for time in t)
        return evaluate(t_old, h, y_old, F, t)

    evaluate = _dop853._evaluate
    monkeypatch.setattr(_dop853, "_evaluate", recording)
    ours = rerun(fun, args, kwargs, ref.t)
    assert same_bits(ours.samples, ref.sol(ref.t).T)
    steps = list(zip(ref.t[:-1], ref.t[1:]))
    assert reads == [(ref.t[0], *steps[0])] + [(end, *step) for step, end in zip(steps, ref.t[1:])]


def test_time_span_must_increase():
    with pytest.raises(ValueError, match="t_span must increase"):
        _dop853.solve_ivp(lambda t, y: y, (1.0, 1.0), [1.0], rtol=1e-6, atol=1e-9)
