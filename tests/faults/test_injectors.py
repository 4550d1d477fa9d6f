"""Unit tests for the carrier/infra fault injectors and the fault plan."""

import os

import numpy as np
import pytest

from repro.faults import (
    AdcClipper,
    AmbientDropout,
    CarrierFaultSet,
    FaultPlan,
    FaultyTask,
    ImpulsiveNoise,
    InfraFaults,
    NarrowbandJammer,
    bitflip_file,
    truncate_file,
)
from repro.utils.rng import make_rng


def _samples(n=4096, seed=7):
    rng = make_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# -- zero-rate contract -----------------------------------------------------------


@pytest.mark.parametrize(
    "injector",
    [
        AmbientDropout(0.0),
        NarrowbandJammer(0.0),
        ImpulsiveNoise(0.0),
        AdcClipper(0.0),
    ],
)
def test_inactive_injector_returns_same_object(injector):
    samples = _samples()
    assert injector.apply(samples, make_rng(0)) is samples


def test_zero_plan_is_noop_and_validated():
    samples = _samples()
    for idle in (FaultPlan.none(), FaultPlan(injectors=(AmbientDropout(0.0),))):
        assert CarrierFaultSet(idle).apply_ambient(samples) is samples
    active = FaultPlan(injectors=(AmbientDropout(0.1),))
    assert CarrierFaultSet(active).apply_ambient(samples) is not samples
    with pytest.raises(ValueError, match="intensity"):
        AmbientDropout(1.5)
    with pytest.raises(ValueError, match="intensity"):
        NarrowbandJammer(-0.1)
    with pytest.raises(ValueError, match="intensity"):
        ImpulsiveNoise(float("nan"))
    # The seed names every fault stream: only a whole number is one.
    for seed in (2.5, float("nan"), float("inf"), "7", None):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=seed)
    assert FaultPlan(seed=7.0).rng_for("dropout").random() == (
        FaultPlan(seed=7).rng_for("dropout").random()
    )


# -- determinism and nesting ------------------------------------------------------


def test_injection_is_deterministic_per_plan_seed():
    samples = _samples()
    plan = FaultPlan(injectors=(AmbientDropout(0.2),), seed=3)
    a = AmbientDropout(0.2).apply(samples, plan.rng_for("dropout"))
    b = AmbientDropout(0.2).apply(samples, plan.rng_for("dropout"))
    np.testing.assert_array_equal(a, b)
    other = FaultPlan(injectors=(AmbientDropout(0.2),), seed=4)
    c = AmbientDropout(0.2).apply(samples, other.rng_for("dropout"))
    assert not np.array_equal(a, c)


def test_dropout_coverage_nests_across_severity():
    samples = _samples()
    plan = FaultPlan(seed=5)
    low = AmbientDropout(0.1).apply(samples, plan.rng_for("dropout"))
    high = AmbientDropout(0.4).apply(samples, plan.rng_for("dropout"))
    low_zeroed = low == 0
    high_zeroed = high == 0
    # Every sample dropped at low severity is dropped at high severity...
    assert np.all(high_zeroed[low_zeroed])
    assert high_zeroed.sum() > low_zeroed.sum()
    # ...and samples untouched at high severity are bit-identical in both.
    np.testing.assert_array_equal(low[~high_zeroed], samples[~high_zeroed])


def test_jammer_affected_samples_identical_across_severity():
    samples = _samples()
    plan = FaultPlan(seed=5)
    low = NarrowbandJammer(0.1).apply(samples, plan.rng_for("jammer"))
    high = NarrowbandJammer(0.4).apply(samples, plan.rng_for("jammer"))
    low_hit = low != samples
    # Samples jammed at low severity carry the exact same tone at high.
    np.testing.assert_array_equal(high[low_hit], low[low_hit])
    assert (high != samples).sum() >= low_hit.sum()


def test_impulse_hits_nest_and_clipper_preserves_phase():
    samples = _samples()
    plan = FaultPlan(seed=6)
    low = ImpulsiveNoise(0.01).apply(samples, plan.rng_for("impulse"))
    high = ImpulsiveNoise(0.05).apply(samples, plan.rng_for("impulse"))
    assert np.all((high != samples)[low != samples])

    clipped = AdcClipper(0.8).apply(samples, plan.rng_for("clip"))
    assert float(np.abs(clipped).max()) < float(np.abs(samples).max())
    hit = np.abs(clipped) < np.abs(samples)
    np.testing.assert_allclose(
        np.angle(clipped[hit]), np.angle(samples[hit]), atol=1e-12
    )


# -- infra ------------------------------------------------------------------------


def test_faulty_task_is_clean_in_parent_process():
    wrapped = FaultyTask(lambda t: (0.0, t * 2), crash_tasks=(0,), hang_tasks=(1,))
    # Same PID as construction: faults must NOT fire.
    assert wrapped(0) == (0.0, 0)
    assert wrapped(1) == (0.0, 2)


def test_from_faults_passthrough_when_noop():
    def fn(task):
        return 0.0, task

    assert FaultyTask.from_faults(fn, None) is fn
    assert FaultyTask.from_faults(fn, InfraFaults()) is fn
    wrapped = FaultyTask.from_faults(fn, InfraFaults(crash_tasks=(2,)))
    assert isinstance(wrapped, FaultyTask)
    assert wrapped.parent_pid == os.getpid()


def test_file_corruptors(tmp_path):
    path = tmp_path / "scratch.iq"
    payload = bytes(range(256)) * 8
    path.write_bytes(payload)
    bitflip_file(str(path))
    flipped = path.read_bytes()
    assert len(flipped) == len(payload)
    assert sum(a != b for a, b in zip(flipped, payload)) == 1
    truncate_file(str(path), n_bytes=100)
    assert path.stat().st_size == 100


# -- plan boundary: non-finite and negative magnitudes ----------------------------


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_clock_drift_must_be_finite(value):
    with pytest.raises(ValueError, match="clock_drift_ppm"):
        FaultPlan(clock_drift_ppm=value)
    # Either sign of a finite drift is a real clock.
    assert FaultPlan(clock_drift_ppm=-500.0).clock_drift_ppm == -500.0


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_hang_seconds_must_be_finite_and_nonnegative(value):
    with pytest.raises(ValueError, match="hang_seconds"):
        InfraFaults(hang_tasks=(0,), hang_seconds=value)
    InfraFaults(hang_tasks=(0,), hang_seconds=0.0)
