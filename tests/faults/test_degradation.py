"""End-to-end fault injection: no-op golden runs and graceful degradation."""

import numpy as np
import pytest

from repro.core import LScatterSystem, SystemConfig
from repro.faults import AmbientDropout, FaultPlan


def _config(**kwargs):
    defaults = dict(bandwidth_mhz=1.4, n_frames=2, reference_mode="genie")
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def _run(config, seed=0, artifacts=False):
    return LScatterSystem(config, rng=seed).run(
        payload_length=6000, artifacts=artifacts
    )


# -- the zero-rate golden contract ------------------------------------------------


def test_zero_plan_run_is_bit_identical_to_clean_run():
    clean = _run(_config(), artifacts=True)
    zeroed = _run(_config(faults=FaultPlan.none(seed=0)), artifacts=True)
    assert zeroed.n_bits == clean.n_bits
    assert zeroed.n_errors == clean.n_errors
    assert zeroed.n_windows == clean.n_windows
    assert zeroed.n_lost_windows == clean.n_lost_windows
    assert zeroed.sync_error_us == clean.sync_error_us
    a = clean.extras["artifacts"]
    b = zeroed.extras["artifacts"]
    np.testing.assert_array_equal(a.shifted_rx, b.shifted_rx)
    np.testing.assert_array_equal(a.direct_rx, b.direct_rx)


def test_zero_plan_circuit_mode_also_identical():
    clean = _run(_config(sync_mode="circuit"))
    zeroed = _run(_config(sync_mode="circuit", faults=FaultPlan.none()))
    assert (zeroed.n_bits, zeroed.n_errors) == (clean.n_bits, clean.n_errors)
    assert zeroed.sync_error_us == clean.sync_error_us


# -- degradation ------------------------------------------------------------------


def test_dropout_goodput_is_monotone_and_marks_erasures():
    goodputs = []
    for rate in (0.0, 0.3, 0.6):
        plan = FaultPlan(injectors=(AmbientDropout(rate),)) if rate else None
        report = _run(_config(faults=plan, erasure_threshold=0.35))
        goodputs.append(report.throughput_bps)
        if rate == 0.6:
            assert report.n_erased_windows > 0
    assert goodputs[0] >= goodputs[1] >= goodputs[2]
    assert goodputs[2] < goodputs[0]


def test_erased_windows_do_not_count_bits():
    plan = FaultPlan(injectors=(AmbientDropout(0.5),))
    marked = _run(_config(faults=plan, erasure_threshold=0.35))
    unmarked = _run(_config(faults=plan))
    assert marked.n_erased_windows > 0
    assert unmarked.n_erased_windows == 0
    # Erasure marking removes the garbage windows from the denominator.
    assert marked.n_bits < unmarked.n_bits
    # And the surviving bits are cleaner than counting garbage as bits.
    assert marked.ber <= unmarked.ber


def test_clock_drift_past_guard_erases_windows():
    plan = FaultPlan(clock_drift_ppm=2000.0)
    report = _run(_config(faults=plan, erasure_threshold=0.35))
    assert report.n_erased_windows > 0


def test_total_pss_miss_degrades_gracefully():
    # One 10 ms frame ends before the comparator's 12 ms warm-up, so no
    # PSS edge is ever accepted and the tag never acquires sync.
    report = _run(_config(sync_mode="circuit", n_frames=1))
    assert report.sync_failed
    assert report.n_bits == 0
    assert np.isnan(report.sync_error_us)


def test_fault_rng_streams_are_independent_of_simulation_seed():
    """The same plan produces the same fault placement under any run seed:
    fault randomness must come from the plan, not the simulation spawn."""
    plan = FaultPlan(injectors=(AmbientDropout(0.4),), seed=9)
    a = _run(_config(faults=plan, erasure_threshold=0.35), seed=1, artifacts=True)
    b = _run(_config(faults=plan, erasure_threshold=0.35), seed=1, artifacts=True)
    np.testing.assert_array_equal(
        a.extras["artifacts"].shifted_rx, b.extras["artifacts"].shifted_rx
    )


@pytest.mark.parametrize("threshold", [-0.1, 1.5])
def test_erasure_threshold_validation(threshold):
    with pytest.raises(ValueError):
        SystemConfig(bandwidth_mhz=1.4, erasure_threshold=threshold)
