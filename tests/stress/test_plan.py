"""Scenario plan contracts, the one fault-set chain, and the scenario registry."""

import numpy as np
import pytest

from repro.faults.carrier import AmbientDropout, CarrierFaultSet
from repro.faults.plan import FaultPlan
from repro.lte.params import LteParams
from repro.stress import (
    SCENARIOS,
    SYNC_COUPLED,
    StressFaultSet,
    make_scenario_plan,
)
from repro.stress.stressors import BurstyPdsch
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def params():
    return LteParams.from_bandwidth(1.4)


@pytest.fixture(scope="module")
def samples(params):
    rng = make_rng(3)
    n = params.samples_per_frame
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)


def test_registry_covers_all_scenarios(params):
    assert len(SCENARIOS) == 6
    assert SYNC_COUPLED <= set(SCENARIOS)
    for scenario in SCENARIOS:
        plan = make_scenario_plan(scenario, 0.5, params, seed=4)
        assert len(plan.injectors) == 1
        assert plan.injectors[0].name == scenario


def test_unknown_scenario_raises(params):
    with pytest.raises(ValueError, match="unknown stress scenario"):
        make_scenario_plan("nope", 0.5, params)


def test_intensity_validated(params):
    with pytest.raises(ValueError):
        make_scenario_plan("sweep-jammer", 1.5, params)
    with pytest.raises(ValueError):
        make_scenario_plan("sweep-jammer", -0.1, params)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_zero_intensity_plan_is_noop(scenario, params, samples):
    plan = make_scenario_plan(scenario, 0.0, params)
    fault_set = CarrierFaultSet(plan)
    assert isinstance(fault_set, StressFaultSet)
    assert fault_set.apply_ambient(samples) is samples
    assert fault_set.apply_backscatter(samples) is samples


def test_active_plan_is_not_noop(params, samples):
    plan = make_scenario_plan("sweep-jammer", 0.5, params)
    assert np.any(CarrierFaultSet(plan).apply_backscatter(samples) != samples)


def test_noop_fault_set_returns_same_objects(params, samples):
    fault_set = CarrierFaultSet(make_scenario_plan("sweep-jammer", 0.0, params))
    assert fault_set.apply_ambient(samples) is samples
    assert fault_set.apply_backscatter(samples) is samples


def test_hooks_route_stressors(params, samples):
    """Ambient stressors touch the ambient hook only, and vice versa."""
    storm = CarrierFaultSet(make_scenario_plan("signalling-storm", 1.0, params))
    assert np.any(storm.apply_ambient(samples) != samples)
    assert storm.apply_backscatter(samples) is samples

    jammer = CarrierFaultSet(make_scenario_plan("sweep-jammer", 1.0, params))
    assert jammer.apply_ambient(samples) is samples
    assert np.any(jammer.apply_backscatter(samples) != samples)


def test_stressor_rng_is_deterministic_per_plan_seed(params, samples):
    out1 = CarrierFaultSet(
        make_scenario_plan("sweep-jammer", 0.7, params, seed=9)
    ).apply_backscatter(samples)
    out2 = CarrierFaultSet(
        make_scenario_plan("sweep-jammer", 0.7, params, seed=9)
    ).apply_backscatter(samples)
    out3 = CarrierFaultSet(
        make_scenario_plan("sweep-jammer", 0.7, params, seed=10)
    ).apply_backscatter(samples)
    np.testing.assert_array_equal(out1, out2)
    assert np.any(out1 != out3)


def test_tag_mob_receives_ambient(params, samples):
    """apply_backscatter(ambient=...) reaches the ghosts' reflection."""
    fault_set = CarrierFaultSet(make_scenario_plan("tag-mob", 1.0, params))
    ambient = 2.0 * samples
    with_ambient = fault_set.apply_backscatter(samples, ambient=ambient)
    fallback = fault_set.apply_backscatter(samples)
    assert np.any(with_ambient != samples)
    assert np.any(fallback != samples)


def test_ambient_chain_runs_dropout_then_stressor(params, samples):
    """One chain per hook: the plan's injectors, in plan order.

    Each injector draws from its own ``plan.rng_for`` stream, so the
    chained output is dropout (stream ``"dropout"``) applied first and
    the stressor (stream ``"stress:bursty-pdsch"``) applied to its result.
    """
    stressor = BurstyPdsch(0.8, params)
    plan = FaultPlan(injectors=(AmbientDropout(0.3), stressor), seed=7)
    chained = StressFaultSet(plan).apply_ambient(samples)
    dropped = AmbientDropout(0.3).apply(samples, plan.rng_for("dropout"))
    expected = stressor.apply(dropped, plan.rng_for("stress:bursty-pdsch"))
    np.testing.assert_array_equal(chained, expected)
    # The order matters: the stressor's echo would refill dropped windows.
    reversed_order = AmbientDropout(0.3).apply(
        stressor.apply(samples, plan.rng_for("stress:bursty-pdsch")),
        plan.rng_for("dropout"),
    )
    assert not np.array_equal(chained, reversed_order)


def test_base_fault_plan_carries_stressors(params, samples):
    """Stressors ride any FaultPlan; only active ones touch the samples."""
    idle = FaultPlan(injectors=(BurstyPdsch(0.0, params),))
    assert CarrierFaultSet(idle).apply_ambient(samples) is samples
    plan = FaultPlan(injectors=(BurstyPdsch(0.8, params),), seed=7)
    scenario = make_scenario_plan("bursty-pdsch", 0.8, params, seed=7)
    np.testing.assert_array_equal(
        CarrierFaultSet(plan).apply_ambient(samples),
        CarrierFaultSet(scenario).apply_ambient(samples),
    )
