"""The named scenario list: one stressor recipe per adversary.

Each scenario is an entry of
:data:`repro.stress.perturbations.PERTURBATIONS` mapping an attack
intensity in [0, 1] to a :class:`~repro.faults.plan.FaultPlan` whose one
injector is an adversary/congestion model's stressor.  Scenarios are
deliberately single-stressor — the suite's degradation curves then
attribute every lost bit to one mechanism — but a plan carries any tuple
of injectors, so tests and campaigns can stack them when they want a
combined storm.
"""

from __future__ import annotations

from repro.stress.perturbations import PERTURBATIONS, SCENARIO_STRESSORS

#: All scenario names, in canonical sweep order.
SCENARIOS = tuple(cls.name for cls in SCENARIO_STRESSORS)

#: Scenarios that attack the sync path itself: their goodput collapse is
#: threshold-y (the comparator either fires or it doesn't under a raised
#: envelope floor), so — like ``drift`` in the chaos suite — the circuit
#: sync probe reports them but the model-sync sweep is what gets gated.
SYNC_COUPLED = frozenset({"pss-jammer", "signalling-storm"})


def make_scenario_plan(scenario, intensity, params, seed=0):
    """Build the fault plan for one scenario at one intensity."""
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown stress scenario {scenario!r}; choose from {SCENARIOS}"
        )
    return PERTURBATIONS[scenario].build(intensity, params, seed)
