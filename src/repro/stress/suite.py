"""The stress harness: sweep attack intensity into degradation curves.

``repro stress`` drives four experiments per report (``STRESS_PR8.json``):

1. **No-op contract** — every scenario at intensity 0 must be
   bit-identical to a run with no plan at all: same metrics, same
   received IQ.  Inherited from the :mod:`repro.faults` contract: a
   scenario is a :class:`~repro.faults.plan.FaultPlan` with a stressor.
2. **Degradation sweeps** — each scenario's intensity is swept from 0 to
   ``max_intensity`` with erasure marking and the per-window SNR gate on.
   Stressor placement is intensity-independent and coverage nests (see
   :mod:`repro.stress.stressors`), so goodput is monotone non-increasing
   by construction — the harness still verifies it point by point, and
   ``repro stress`` exits non-zero when it does not hold.
3. **Sync probes** — the sync-coupled scenarios (PSS jammer, signalling
   storm) re-run at full intensity with the real comparator circuit, once
   without and once with the adaptive re-sync budget, reporting sync loss
   and the retries consumed.  Threshold-y, so reported but not gated
   (the chaos suite treats clock drift the same way).
4. **Graceful degradation** — the three mitigations under load: adaptive
   re-sync stays within its bounded budget, MAC congestion backoff yields
   during a storm with bounded quiet time and resumes after it, and ARQ
   over an erasure channel delivers bit-exact payloads with bounded
   retransmissions across the whole intensity sweep.

The no-op contract and the sweeps are the ones ``repro chaos`` uses too
(:mod:`repro.stress.perturbations`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.link.arq import BitErrorChannel, ErasureChannel, SelectiveRepeatArq
from repro.mac.schemes import PriorityScheme
from repro.stress.perturbations import (
    SweepConfig,
    json_float,
    noop_contract,
    run_session,
    sweep,
    write_report,
)
from repro.stress.scenarios import SCENARIOS, SYNC_COUPLED, make_scenario_plan
from repro.utils.rng import make_rng

#: Preamble mis-slice fraction above which a packet's windows are erased.
STRESS_ERASURE_THRESHOLD = 0.35

#: Per-window SNR-gate (dB): data windows whose post-detection SNR proxy
#: falls below this escalate to erasures (see :mod:`repro.bsrx`).
STRESS_SNR_GATE_DB = 0.0

#: Adaptive re-sync retry budget used by the sync probes.
RESYNC_BUDGET = 3

#: The MAC probe: 400 slots with a congestion storm over [100, 220),
#: under a backoff capped at 8 slots.
MAC_PROBE_SLOTS = 400
MAC_PROBE_STORM = (100, 220)
MAC_PROBE_MAX_BACKOFF_SLOTS = 8

#: How the stress sweep runs its sessions and names its record fields.
STRESS_SWEEP = SweepConfig(
    name_key="scenario",
    level_key="intensity",
    erasure_threshold=STRESS_ERASURE_THRESHOLD,
    snr_gate_db=STRESS_SNR_GATE_DB,
)


def _sync_probe(scenario, max_intensity, smoke, seed, payload_length):
    """Full-intensity attack against the real comparator circuit.

    Runs the scenario twice in ``sync_mode="circuit"`` — legacy
    single-pass, then with the adaptive re-sync budget — and reports
    whether sync survived and how many retries that took.  The attempt
    count must stay within the budget (bounded backoff); whether sync
    *recovers* depends on how deep the attack buries the PSS boost, so
    recovery is reported, not gated.
    """
    plan = make_scenario_plan(
        scenario, max_intensity, STRESS_SWEEP.params, seed=seed
    )
    records = {}
    for label, budget in (("single-pass", 0), ("adaptive", RESYNC_BUDGET)):
        config = STRESS_SWEEP.config(
            smoke, plan=plan, sync_mode="circuit", sync_resync_attempts=budget
        )
        report = run_session(config, seed, payload_length, artifacts=True)
        sync = report.extras["artifacts"].sync_result
        records[label] = {
            "sync_failed": bool(report.sync_failed),
            "resync_attempts": int(sync.resync_attempts),
            "threshold_margin": json_float(sync.threshold_margin),
            "goodput_bps": json_float(report.throughput_bps),
        }
    bounded = records["adaptive"]["resync_attempts"] <= RESYNC_BUDGET
    recovered = (
        records["single-pass"]["sync_failed"]
        and not records["adaptive"]["sync_failed"]
    )
    return {
        "scenario": scenario,
        "intensity": float(max_intensity),
        "single_pass": records["single-pass"],
        "adaptive": records["adaptive"],
        "attempts_bounded": bool(bounded),
        "resync_recovered": bool(recovered),
    }


def _mac_backoff_probe():
    """Congestion backoff through a storm: yield, stay bounded, resume."""
    n_slots, storm = MAC_PROBE_SLOTS, MAC_PROBE_STORM
    max_backoff_slots = MAC_PROBE_MAX_BACKOFF_SLOTS
    scheme = PriorityScheme(
        congestion_backoff=True, max_backoff_slots=max_backoff_slots
    )
    tags = ["tag00", "tag01"]
    rng = make_rng("stress-mac")
    transmitted_before = transmitted_during = transmitted_after = 0
    max_backoff_seen = 0
    first_resume = None
    for slot in range(n_slots):
        congested = storm[0] <= slot < storm[1]
        active = scheme.transmitters(slot, tags, rng)
        scheme.observe_congestion(slot, congested)
        max_backoff_seen = max(max_backoff_seen, scheme.backoff_slots)
        if active:
            if slot < storm[0]:
                transmitted_before += 1
            elif slot < storm[1]:
                transmitted_during += 1
            else:
                transmitted_after += 1
                if first_resume is None:
                    first_resume = slot
    recovery_latency = (
        first_resume - storm[1] if first_resume is not None else n_slots
    )
    return {
        "n_slots": n_slots,
        "storm_slots": list(storm),
        "max_backoff_slots": max_backoff_slots,
        "transmitted_before": transmitted_before,
        "transmitted_during_storm": transmitted_during,
        "transmitted_after": transmitted_after,
        "max_backoff_seen": max_backoff_seen,
        "recovery_latency_slots": recovery_latency,
        # Bounded: the yield window never exceeds the cap, so however long
        # the storm lasts the fleet re-probes within max_backoff_slots of
        # its end; graceful: it yields during the storm yet resumes after.
        "passed": bool(
            max_backoff_seen <= max_backoff_slots
            and recovery_latency <= max_backoff_slots + 1
            and transmitted_during < (storm[1] - storm[0])
            and transmitted_after > 0
        ),
    }


def _arq_jamming_probe(intensities, seed, payload_bits=4096):
    """ARQ over a jammed erasure pipe: bit-exact, bounded retransmissions."""
    rng = make_rng(f"stress-arq:{seed}")
    payload = rng.integers(0, 2, size=payload_bits).astype(np.int8)
    arq = SelectiveRepeatArq(mtu_bits=256, window=8, max_rounds=500)
    points = []
    all_exact = True
    all_bounded = True
    for intensity in intensities:
        channel = ErasureChannel(
            BitErrorChannel(0.002 * intensity, rng=make_rng(f"ber:{intensity}")),
            erasure_rate=0.5 * intensity,
            rng=make_rng(f"erase:{intensity}"),
        )
        recovered, report = arq.deliver(payload, channel)
        exact = bool(np.array_equal(recovered, payload))
        overhead = report.retransmission_overhead
        bounded = math.isfinite(overhead) and report.rounds <= arq.max_rounds
        all_exact &= exact
        all_bounded &= bounded
        points.append({
            "intensity": float(intensity),
            "frames_sent": int(report.frames_sent),
            "erased_frames": int(channel.erased_frames),
            "retransmission_overhead": json_float(overhead),
            "bit_exact": exact,
        })
    return {
        "payload_bits": payload_bits,
        "points": points,
        "all_bit_exact": bool(all_exact),
        "all_bounded": bool(all_bounded),
        "passed": bool(all_exact and all_bounded),
    }


def run_stress(
    output="STRESS_PR8.json",
    smoke=False,
    seed=0,
    max_intensity=1.0,
    scenarios=None,
):
    """Run the stress suite; writes ``output`` and returns the report dict."""
    scenarios = list(scenarios) if scenarios else list(SCENARIOS)
    for scenario in scenarios:
        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown stress scenario {scenario!r}; choose from {SCENARIOS}"
            )
    fractions = (0.0, 0.5, 1.0) if smoke else (0.0, 0.25, 0.5, 0.75, 1.0)
    intensities = [f * float(max_intensity) for f in fractions]
    payload_length = 6000 if smoke else 20000
    contracts = []
    for scenario in scenarios:
        zero = make_scenario_plan(scenario, 0.0, STRESS_SWEEP.params, seed=seed)
        verdict, _ = noop_contract(
            STRESS_SWEEP, zero, smoke, seed, payload_length
        )
        contracts.append({"scenario": scenario, **verdict})

    report = {
        "meta": {
            "mode": "smoke" if smoke else "full",
            "seed": int(seed),
            "max_intensity": float(max_intensity),
            "scenarios": scenarios,
            "erasure_threshold": STRESS_ERASURE_THRESHOLD,
            "snr_gate_db": STRESS_SNR_GATE_DB,
            "payload_length": payload_length,
        },
        "noop_contracts": contracts,
        "sweeps": [
            sweep(STRESS_SWEEP, s, intensities, smoke, seed, payload_length)
            for s in scenarios
        ],
        "sync_probes": [
            _sync_probe(s, float(max_intensity), smoke, seed, payload_length)
            for s in scenarios
            if s in SYNC_COUPLED
        ],
        "degradation": {
            "mac_backoff": _mac_backoff_probe(),
            "arq_jamming": _arq_jamming_probe(intensities, seed),
        },
    }

    checks = [c["passed"] for c in report["noop_contracts"]]
    checks += [
        s["monotone_goodput"] for s in report["sweeps"] if s["monotone_required"]
    ]
    checks += [p["attempts_bounded"] for p in report["sync_probes"]]
    checks.append(report["degradation"]["mac_backoff"]["passed"])
    checks.append(report["degradation"]["arq_jamming"]["passed"])
    report["passed"] = bool(all(checks))
    write_report(report, output)
    return report
