"""Deterministic soak/endurance harness for the fleet service.

``repro serve --soak`` drives a fixed population of synthetic
tag-sessions — grouped into *cohorts*, each cohort one seeded
:class:`~repro.fleet.deployment.Deployment` — through a live
:class:`~repro.service.service.FleetService`, with campaign-style
CRC-checkpointed progress: every completed cohort's result row is
persisted through :class:`repro.campaign.checkpoint.CheckpointStore`
(the cohorts quack like campaign :class:`~repro.campaign.spec.Shard`\\ s),
so a SIGKILLed soak resumes from its run directory and still produces
the *bit-identical* final report an uninterrupted run would have.

The report (``SOAK_PR9.json``) is split on exactly that line:

* ``aggregates`` — deterministic by construction (session totals,
  per-cohort CRC-32 fingerprints, a grid CRC).  The kill-and-resume
  drill and the nightly workflow compare this section with ``==``.
* ``equivalence`` — the service-vs-batch gate: checked cohorts are
  re-run through a plain :meth:`FleetRunner.run` batch and their rows
  must match the service path bit for bit.
* ``operations`` — measured numbers (throughput, p50/p99 session
  latency, shed rate, peak RSS).  Real telemetry, never gated on
  equality.

Mid-soak the harness deliberately :meth:`~FleetService.reload`\\ s the
service once (after the first executed cohort) so every soak also
exercises the pool-swap path under load.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from repro.campaign.checkpoint import CheckpointStore, canonical_crc
from repro.campaign.spec import Shard
from repro.fleet.deployment import Deployment
from repro.fleet.runner import FleetRunner
from repro.service.service import FleetService
from repro.utils.integrity import write_json
from repro.utils.validation import require_whole

#: Bumped when the soak grid or row layout changes; stale checkpoints
#: are re-run instead of merged.
SOAK_VERSION = 1

#: Full-mode defaults: 24 cohorts x 4 tags.  Smoke shrinks to 3 cohorts.
FULL_SESSIONS = 96
SMOKE_SESSIONS = 12


class SoakError(RuntimeError):
    """A soak that cannot produce a complete, verified grid."""


def default_spec(
    smoke=False,
    sessions=None,
    cohort_tags=4,
    seed=0,
    scheme="tdma",
    bandwidth_mhz=1.4,
    n_frames=2,
    payload_length=2000,
):
    """The JSON-safe soak parameter block (also the shard identity)."""
    if sessions is None:
        sessions = SMOKE_SESSIONS if smoke else FULL_SESSIONS
    require_whole("sessions", sessions, minimum=1)
    require_whole("cohort_tags", cohort_tags, minimum=1)
    return {
        "version": SOAK_VERSION,
        "smoke": bool(smoke),
        "sessions": int(sessions),
        "cohort_tags": int(cohort_tags),
        "seed": int(seed),
        "scheme": str(scheme),
        "bandwidth_mhz": float(bandwidth_mhz),
        "n_frames": int(n_frames),
        "payload_length": int(payload_length),
    }


def build_soak_shards(spec):
    """Expand a soak spec into its ordered, seeded cohort shards.

    Same determinism contract as the campaign grid: identical spec →
    identical shards, ids and seeds, independent of execution.  The last
    cohort absorbs the remainder when ``sessions`` does not divide by
    ``cohort_tags``.
    """
    prefix = "soak-smoke" if spec["smoke"] else "soak"
    shards = []
    remaining = spec["sessions"]
    index = 0
    while remaining > 0:
        n_tags = min(spec["cohort_tags"], remaining)
        seed = int(
            np.random.SeedSequence([spec["seed"], index]).generate_state(1)[0]
        )
        params = {
            "version": spec["version"],
            "n_tags": int(n_tags),
            "scheme": spec["scheme"],
            "bandwidth_mhz": spec["bandwidth_mhz"],
            "n_frames": spec["n_frames"],
            "payload_length": spec["payload_length"],
        }
        shards.append(
            Shard(
                index=index,
                shard_id=f"{prefix}-{index:04d}",
                experiment="soak",
                params=params,
                seed=seed,
            )
        )
        remaining -= n_tags
        index += 1
    return shards


def _cohort_runner(params, seed):
    deployment = Deployment.ring(
        params["n_tags"],
        bandwidth_mhz=params["bandwidth_mhz"],
        n_frames=params["n_frames"],
    )
    return FleetRunner(deployment, scheme=params["scheme"], seed=seed)


def _cohort_row(report):
    """JSON-safe, deterministic view of one cohort's fleet report.

    Only result fields appear — no timings, no worker counts — so the
    row is identical whichever substrate (service or batch) produced it.
    NaN sync errors (tags that owned no airtime) map to ``None`` because
    NaN breaks both JSON round-trips and ``==`` comparisons.
    """
    tags = []
    for tag in report.tags:
        sync = tag.sync_error_us
        tags.append(
            {
                "name": tag.name,
                "n_bits": int(tag.n_bits),
                "n_errors": int(tag.n_errors),
                "n_windows": int(tag.n_windows),
                "n_lost_windows": int(tag.n_lost_windows),
                "n_erased_windows": int(tag.n_erased_windows),
                "owned_half_frames": int(tag.owned_half_frames),
                "collided_half_frames": int(tag.collided_half_frames),
                "sync_error_us": None if np.isnan(sync) else float(sync),
                "failed": bool(tag.failed),
            }
        )
    return {
        "scheme": report.scheme,
        "n_half_frames": int(report.n_half_frames),
        "collision_fraction": float(report.collision_fraction),
        "tags": tags,
    }


def run_cohort_batch(params, seed):
    """The reference path: one plain batch ``FleetRunner.run``."""
    with _cohort_runner(params, seed) as runner:
        report = runner.run(payload_length=params["payload_length"])
    return _cohort_row(report)


def run_cohort_service(service, params, seed):
    """The service path: the same cohort scheduled as queued sessions."""
    with _cohort_runner(params, seed) as runner:
        ticket = service.submit_fleet(
            runner, payload_length=params["payload_length"]
        )
        report = service.fleet_result(ticket)
    return _cohort_row(report)


def _aggregates(spec, shards, rows):
    """The deterministic section the resume drills compare bit-for-bit."""
    totals = {
        "n_bits": 0,
        "n_errors": 0,
        "n_windows": 0,
        "n_lost_windows": 0,
        "n_erased_windows": 0,
    }
    sessions = 0
    cohort_crcs = []
    for row in rows:
        for tag in row["tags"]:
            sessions += 1
            for key in totals:
                totals[key] += tag[key]
        cohort_crcs.append(canonical_crc(row))
    return {
        "version": SOAK_VERSION,
        "spec": dict(spec),
        "cohorts": len(shards),
        "sessions": sessions,
        "totals": totals,
        "cohort_crc32": cohort_crcs,
        "grid_crc32": canonical_crc(cohort_crcs),
    }


def run_soak(
    output,
    run_dir,
    spec,
    workers=2,
    queue_depth=8,
    resume=False,
    snapshot_path=None,
    snapshot_every=8,
    after_cohort=None,
):
    """Run (or resume) a soak; writes and returns the report dict.

    ``after_cohort(index)`` is a test hook invoked after each cohort is
    checkpointed — the kill-and-resume drill raises from it to die at a
    chosen point.  The first cohort is re-run through the batch path for
    the bit-identity gate (every checked cohort doubles its cost).
    """
    shards = build_soak_shards(spec)
    store = CheckpointStore(run_dir)
    service = FleetService(
        workers=workers,
        max_queue_depth=queue_depth,
        snapshot_path=snapshot_path,
        snapshot_every=snapshot_every,
    )
    started = time.perf_counter()
    resumed = completed = 0
    service.start()
    try:
        for shard in shards:
            if resume:
                status, _ = store.verify(shard)
                if status == "ok":
                    resumed += 1
                    continue
            row = run_cohort_service(service, shard.params, shard.seed)
            store.write(shard, row)
            completed += 1
            if after_cohort is not None:
                after_cohort(shard.index)
            if completed == 1 and len(shards) > 1:
                # Exercise the pool swap under load once per soak; results
                # are pure functions of their tasks, so this cannot change
                # the aggregates.
                service.reload()
        service.drain()
    finally:
        service.shutdown()
    wall_seconds = time.perf_counter() - started

    # The full grid must verify — whoever wrote it, this run or a killed
    # predecessor.  Rows are read back from disk (in grid order) so the
    # aggregates cover exactly what a resume would see.
    rows = []
    for shard in shards:
        status, row = store.verify(shard)
        if status != "ok":
            raise SoakError(
                f"cohort {shard.shard_id} checkpoint is {status} after the "
                f"soak; cannot aggregate"
            )
        rows.append(row)

    equivalence = [
        {
            "shard_id": shard.shard_id,
            "identical": run_cohort_batch(shard.params, shard.seed)
            == rows[shard.index],
        }
        for shard in shards[:1]
    ]

    latency = service.telemetry.stage_percentiles()
    queue_counters = service.queue.counters()
    attempts = queue_counters["submitted"] + queue_counters["shed"]
    # Sessions that actually ran through the queue this invocation
    # (resumed cohorts' sessions did not).
    executed_sessions = queue_counters["submitted"]
    report = {
        "aggregates": _aggregates(spec, shards, rows),
        "equivalence": {
            "checked_cohorts": len(equivalence),
            "cohorts": equivalence,
            "passed": all(e["identical"] for e in equivalence),
        },
        "progress": {
            "completed_cohorts": completed,
            "resumed_cohorts": resumed,
            "total_cohorts": len(shards),
        },
        "operations": {
            "wall_seconds": wall_seconds,
            "workers": service.workers,
            "queue_depth": queue_depth,
            "executed_sessions": executed_sessions,
            "throughput_sessions_per_second": (
                executed_sessions / wall_seconds if wall_seconds > 0 else 0.0
            ),
            "session_latency": latency["session"],
            "queue_wait_latency": latency["queue_wait"],
            "execute_latency": latency["execute"],
            "shed": {
                "count": queue_counters["shed"],
                "attempts": attempts,
                "rate": (
                    queue_counters["shed"] / attempts if attempts else 0.0
                ),
            },
            "reloads": service.reloads,
            "snapshot_exports": service.telemetry.exports,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        },
        "passed": all(e["identical"] for e in equivalence),
    }
    write_json(output, report)
    return report
