"""The chaos harness: sweep fault severity into degradation curves.

``repro chaos`` drives three experiments and writes one JSON report
(``CHAOS_PR3.json``):

1. **No-op contract** — a run with an explicit all-zero
   :class:`~repro.faults.plan.FaultPlan` must be bit-identical to a run
   with no plan at all: same metrics, same received IQ.  This is the
   regression gate that keeps fault hooks out of the clean pipeline.
2. **Degradation sweeps** — for each fault kind (ambient dropout,
   narrowband jammer, impulsive noise, ADC clipping, tag clock drift) the
   severity is swept from 0 to ``max_severity`` with erasure marking on.
   Because injector placement is severity-independent and coverage nests
   (see :mod:`repro.faults.plan`), goodput is monotone non-increasing by
   construction — the harness still verifies it point by point.
3. **Fleet resilience** — a multi-worker fleet with an injected worker
   crash and a hung worker must finish under the engine's timeout/retry
   machinery and reproduce the fault-free per-tag results bit for bit;
   a bit-flipped ambient scratch file must be detected and regenerated.

Erased windows are excluded from every BER/goodput figure (they feed the
link-layer ARQ path, not the bit counts).  The fault kinds, the no-op
contract and the sweep are the ones ``repro stress`` uses too
(:mod:`repro.stress.perturbations`).
"""

from __future__ import annotations

from repro.faults.infra import bitflip_file
from repro.faults.plan import FaultPlan, InfraFaults
from repro.fleet.ambient import AmbientCache
from repro.fleet.deployment import Deployment
from repro.fleet.runner import FleetRunner
from repro.stress.perturbations import (
    PERTURBATIONS,
    SweepConfig,
    noop_contract,
    sweep,
    write_report,
)

#: Fault kinds the sweep knows how to scale.  ``drift`` maps severity to
#: tag clock drift in ppm (severity 1.0 = 2000 ppm, far past the guard).
CHAOS_KINDS = ("dropout", "jammer", "impulse", "clipping", "drift")

#: Kinds whose affected-sample sets nest across severities (coverage
#: faults): goodput is monotone non-increasing by construction and the
#: harness enforces it.  ``drift`` is a *threshold* fault — chips stay
#: inside the guard slack until the accumulated walk exceeds it, and tiny
#: in-slack shifts can flip individual soft decisions either way — so it
#: is reported but not gated.
MONOTONE_KINDS = frozenset(k for k in CHAOS_KINDS if PERTURBATIONS[k].gated)

#: Preamble mis-slice fraction above which a packet's windows are erased.
CHAOS_ERASURE_THRESHOLD = 0.35

#: How the chaos sweep runs its sessions and names its record fields.
CHAOS_SWEEP = SweepConfig(
    name_key="kind",
    level_key="severity",
    erasure_threshold=CHAOS_ERASURE_THRESHOLD,
)


def _tag_key(result):
    """The per-tag fields that must survive infrastructure faults intact."""
    return (
        result.name,
        result.n_bits,
        result.n_errors,
        result.n_windows,
        result.n_lost_windows,
        result.n_erased_windows,
    )


def _fleet_resilience(smoke, seed, payload_length):
    """Crash one worker, hang another, corrupt the scratch — still finish."""
    n_tags = 3
    deployment = Deployment.ring(
        n_tags, bandwidth_mhz=1.4, n_frames=2 if smoke else 4
    )

    with FleetRunner(deployment, workers=1, seed=seed) as runner:
        baseline = runner.run(payload_length=payload_length)

    # The hang outlasts the timeout budget on purpose: the engine must
    # detect the stuck worker, terminate it, and retry in the parent.
    faults = InfraFaults(crash_tasks=(0,), hang_tasks=(1,), hang_seconds=60.0)
    with FleetRunner(
        deployment,
        workers=2,
        seed=seed,
        task_timeout_seconds=3.0 if smoke else 15.0,
        on_error="partial",
        infra_faults=faults,
    ) as runner:
        faulted = runner.run(payload_length=payload_length)
        telemetry_retried = faulted.retried_tasks

    base_keys = sorted(_tag_key(t) for t in baseline.tags)
    fault_keys = sorted(_tag_key(t) for t in faulted.tags if not t.failed)
    bit_identical = base_keys == fault_keys and not any(
        t.failed for t in faulted.tags
    )

    # Scratch corruption: flip a byte mid-spill; the next handle() call
    # must notice (CRC) and silently regenerate.
    cache = AmbientCache()
    try:
        config = deployment.base_config()
        handle = cache.handle(config, seed)
        bitflip_file(handle.path)
        regenerated = cache.handle(config, seed)
        scratch = {
            "integrity_failures": int(cache.integrity_failures),
            "regenerated_intact": bool(
                regenerated.checksum is not None
                and regenerated.verify() is None
            ),
            "transmit_calls": int(cache.transmit_calls),
        }
    finally:
        cache.close()

    return {
        "n_tags": n_tags,
        "injected": {"crash_tasks": [0], "hang_tasks": [1]},
        "retried_tasks": int(telemetry_retried),
        "timed_out_tasks": int(faulted.timed_out_tasks),
        "failed_tags": int(faulted.failed_tags),
        "results_bit_identical": bool(bit_identical),
        "scratch_corruption": scratch,
        "passed": bool(
            bit_identical
            and scratch["integrity_failures"] >= 1
            and scratch["regenerated_intact"]
            # The ambient is generated once; regeneration re-spills the
            # same in-memory stage without a new transmit.
            and scratch["transmit_calls"] == 1
        ),
    }


def run_chaos(
    output="CHAOS_PR3.json",
    smoke=False,
    seed=0,
    max_severity=1.0,
    kinds=None,
    fleet=True,
):
    """Run the chaos suite; writes ``output`` and returns the report dict."""
    kinds = list(kinds) if kinds else list(CHAOS_KINDS)
    for kind in kinds:
        if kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {kind!r}; choose from {CHAOS_KINDS}"
            )
    fractions = (0.0, 0.5, 1.0) if smoke else (0.0, 0.25, 0.5, 0.75, 1.0)
    severities = [f * float(max_severity) for f in fractions]
    payload_length = 6000 if smoke else 20000
    contract, clean = noop_contract(
        CHAOS_SWEEP, FaultPlan.none(seed=seed), smoke, seed, payload_length
    )
    contract.update(n_bits=int(clean.n_bits), n_errors=int(clean.n_errors))

    report = {
        "meta": {
            "mode": "smoke" if smoke else "full",
            "seed": int(seed),
            "max_severity": float(max_severity),
            "kinds": kinds,
            "erasure_threshold": CHAOS_ERASURE_THRESHOLD,
            "payload_length": payload_length,
        },
        "noop_contract": contract,
        "sweeps": [
            sweep(CHAOS_SWEEP, kind, severities, smoke, seed, payload_length)
            for kind in kinds
        ],
    }
    if fleet:
        report["fleet"] = _fleet_resilience(smoke, seed, payload_length)

    checks = [report["noop_contract"]["passed"]]
    checks += [
        s["monotone_goodput"] for s in report["sweeps"] if s["monotone_required"]
    ]
    if fleet:
        checks.append(report["fleet"]["passed"])
    report["passed"] = bool(all(checks))
    write_report(report, output)
    return report
