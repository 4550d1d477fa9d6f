"""Stressor contracts: zero no-op, nested coverage, fixed placement."""

import numpy as np
import pytest

from repro.lte.params import LteParams
from repro.stress.stressors import (
    BurstyPdsch,
    PssJammer,
    ReactiveJammer,
    SignallingStorm,
    SweepJammer,
    TagMob,
)
from repro.utils.rng import make_rng

ALL_STRESSORS = (
    BurstyPdsch,
    SignallingStorm,
    SweepJammer,
    ReactiveJammer,
    PssJammer,
    TagMob,
)


@pytest.fixture(scope="module")
def params():
    return LteParams.from_bandwidth(1.4)


@pytest.fixture(scope="module")
def samples(params):
    rng = make_rng(11)
    n = 2 * params.samples_per_frame
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)


def _apply(stressor, samples, seed="s"):
    # The one injector signature: only tag-mob reads ``ambient``.
    return stressor.apply(samples, make_rng(seed), ambient=samples)


@pytest.mark.parametrize("stressor_cls", ALL_STRESSORS)
def test_zero_intensity_returns_same_object(stressor_cls, params, samples):
    stressor = stressor_cls(0.0, params)
    assert not stressor.active
    assert _apply(stressor, samples) is samples


@pytest.mark.parametrize("stressor_cls", ALL_STRESSORS)
def test_active_stressor_copies_and_perturbs(stressor_cls, params, samples):
    original = samples.copy()
    out = _apply(stressor_cls(1.0, params), samples)
    assert out is not samples
    np.testing.assert_array_equal(samples, original)  # input untouched
    assert np.any(out != samples)


@pytest.mark.parametrize("stressor_cls", ALL_STRESSORS)
def test_intensity_rejected_outside_unit(stressor_cls, params):
    with pytest.raises(ValueError):
        stressor_cls(-0.1, params)
    with pytest.raises(ValueError):
        stressor_cls(1.5, params)


@pytest.mark.parametrize("stressor_cls", ALL_STRESSORS)
@pytest.mark.parametrize("lo, hi", [(0.25, 0.5), (0.5, 1.0)])
def test_coverage_nests_and_shared_samples_identical(
    stressor_cls, params, samples, lo, hi
):
    """The monotone-by-construction discipline, checked sample by sample.

    With a fixed rng stream, the set of samples a stressor perturbs at a
    lower intensity must be a subset of the set at a higher intensity,
    and the perturbation on the shared set must be bit-identical — only
    then are the suite's degradation curves monotone by construction.
    """
    out_lo = _apply(stressor_cls(lo, params), samples)
    out_hi = _apply(stressor_cls(hi, params), samples)
    affected_lo = out_lo != samples
    affected_hi = out_hi != samples
    assert affected_lo.sum() <= affected_hi.sum()
    assert not np.any(affected_lo & ~affected_hi)
    np.testing.assert_array_equal(out_lo[affected_lo], out_hi[affected_lo])
    # Samples untouched at the higher intensity are untouched, full stop.
    np.testing.assert_array_equal(out_hi[~affected_hi], samples[~affected_hi])


def test_placement_is_intensity_independent(params, samples):
    """Same stream, different intensity: low-coverage region is stable."""
    out_half = _apply(SweepJammer(0.5, params), samples)
    out_full = _apply(SweepJammer(1.0, params), samples)
    affected = out_half != samples
    np.testing.assert_array_equal(out_half[affected], out_full[affected])


def test_signalling_storm_leaves_sync_symbols_clean(params, samples):
    from repro.lte.pss import PSS_SLOTS
    from repro.lte.sss import SSS_SYMBOL_IN_SLOT
    from repro.stress.stressors import _symbol_span

    out = _apply(SignallingStorm(1.0, params), samples)
    for frame in range(2):
        for slot in PSS_SLOTS:
            lo, hi = _symbol_span(params, frame, slot, SSS_SYMBOL_IN_SLOT, 6)
            np.testing.assert_array_equal(out[lo:hi], samples[lo:hi])


def test_reactive_jammer_skips_sync_slots(params, samples):
    from repro.stress.stressors import _symbol_span

    out = _apply(ReactiveJammer(1.0, params), samples)
    for frame in range(2):
        for slot in (0, 10):
            lo, hi = _symbol_span(params, frame, slot, 0, 6)
            np.testing.assert_array_equal(out[lo:hi], samples[lo:hi])


def test_pss_jammer_touches_only_sync_symbols(params, samples):
    from repro.lte.pss import PSS_SLOTS
    from repro.lte.sss import SSS_SYMBOL_IN_SLOT
    from repro.stress.stressors import _symbol_span

    out = _apply(PssJammer(1.0, params), samples)
    sync = np.zeros(len(samples), dtype=bool)
    for frame in range(2):
        for slot in PSS_SLOTS:
            lo, hi = _symbol_span(params, frame, slot, SSS_SYMBOL_IN_SLOT, 6)
            sync[lo:hi] = True
    assert np.any(out[sync] != samples[sync])
    np.testing.assert_array_equal(out[~sync], samples[~sync])


def test_tag_mob_ghosts_leave_sync_clean(params, samples):
    from repro.lte.pss import PSS_SLOTS
    from repro.lte.sss import SSS_SYMBOL_IN_SLOT
    from repro.stress.stressors import _symbol_span

    out = _apply(TagMob(1.0, params), samples)
    for frame in range(2):
        for slot in PSS_SLOTS:
            lo, hi = _symbol_span(params, frame, slot, SSS_SYMBOL_IN_SLOT, 6)
            np.testing.assert_array_equal(out[lo:hi], samples[lo:hi])


def test_tag_mob_ghost_count_scales_with_intensity(params, samples):
    """More active ghosts -> strictly more interfered half-frames."""
    one = _apply(TagMob(0.25, params), samples)  # ceil(0.25*4) = 1 ghost
    all_four = _apply(TagMob(1.0, params), samples)
    assert (one != samples).sum() < (all_four != samples).sum()
