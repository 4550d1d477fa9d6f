"""Execute a fleet: schedule, share the ambient, fan out per-tag stages.

The runner is the glue between the three fleet substrates:

1. :class:`~repro.fleet.scheduler.FleetScheduler` decides, in the parent
   process, which tag owns which half-frame (so MAC randomness never
   depends on the worker count);
2. :class:`~repro.fleet.ambient.AmbientCache` generates the eNodeB
   capture once and shares it — in-memory when serial, memory-mapped
   through an :class:`~repro.fleet.ambient.AmbientHandle` when parallel;
3. :class:`~repro.fleet.engine.ParallelRunEngine` runs one pure
   :func:`_simulate_tag` task per tag, each with a pre-spawned seed, so
   per-tag BER/throughput are bit-identical for any ``--workers`` value.

For chaos testing the runner can wrap the task function in a
:class:`~repro.faults.infra.FaultyTask` (worker-only crashes and hangs)
and run the engine in ``partial`` mode: a tag whose task dies every retry
becomes a ``failed=True`` :class:`~repro.fleet.report.TagResult` instead
of sinking the whole fleet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.system import LScatterSystem
from repro.faults.infra import FaultyTask
from repro.fleet.ambient import AmbientCache
from repro.fleet.engine import ParallelRunEngine, TaskFailure, require_timeout
from repro.fleet.report import TagResult, fleet_report
from repro.fleet.scheduler import FleetScheduler, make_scheme
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.validation import require_whole


@dataclass
class TagTask:
    """Self-contained, picklable payload for one per-tag simulation."""

    index: int
    name: str
    config: object
    seed: int
    owned: tuple
    collided: int
    payload_length: int
    enb_to_tag_ft: float
    tag_to_ue_ft: float
    #: AmbientStage (serial) or AmbientHandle (worker processes).
    ambient: object = None
    #: Collect a span tree + counter delta for this task and ship both
    #: back through the result pickle (see :mod:`repro.obs`).
    trace: bool = False


def _tag_result(task, report=None):
    """The task's :class:`TagResult`, with ``report``'s counters if it ran."""
    result = TagResult(
        name=task.name,
        enb_to_tag_ft=task.enb_to_tag_ft,
        tag_to_ue_ft=task.tag_to_ue_ft,
        owned_half_frames=len(task.owned),
        collided_half_frames=task.collided,
    )
    if report is not None:
        result.n_bits = report.n_bits
        result.n_errors = report.n_errors
        result.n_windows = report.n_windows
        result.n_lost_windows = report.n_lost_windows
        result.n_erased_windows = report.n_erased_windows
        result.sync_error_us = report.sync_error_us
    return result


def _run_tag_stage(task):
    """The traced body of :func:`_simulate_tag`: one system run."""
    ambient = task.ambient
    if hasattr(ambient, "load"):
        ambient = ambient.load()
    system = LScatterSystem(task.config, rng=task.seed)
    return system.run(
        payload_length=task.payload_length,
        ambient=ambient,
        owned_half_frames=task.owned,
    )


def _simulate_tag(task):
    """Run one tag's per-tag stage; returns ``(elapsed, TagResult)``.

    Module-level and argument-pure so it pickles cleanly into worker
    processes and reproduces exactly when retried in the parent.  With
    ``task.trace`` the stage runs inside an isolated trace collection
    (:func:`repro.obs.trace.collect`) — safe even on the engine's serial
    in-process path, where an ambient trace may already be active — and
    the result carries serialised span trees plus the counter delta this
    task contributed (long-lived workers handle many tasks, so absolute
    counters would double-count).
    """
    start = time.perf_counter()
    if not task.owned:
        result = _tag_result(task)
    elif task.trace:
        before = obs_metrics.counters_snapshot()
        with obs_trace.collect() as collection:
            result = _tag_result(task, _run_tag_stage(task))
        result.trace = [obs_trace.to_dict(n) for n in collection.roots]
        result.metrics = obs_metrics.counter_delta(
            before, obs_metrics.counters_snapshot()
        )
    else:
        result = _tag_result(task, _run_tag_stage(task))
    elapsed = time.perf_counter() - start
    result.elapsed_seconds = elapsed
    return elapsed, result


def _simulate_tags_batched(tasks):
    """Run many tags' stages with one batched cross-tag demod pass.

    Front-ends (channels, tag, receive, reference) run per tag in task
    order with each task's own pre-spawned seed — exactly the RNG draws
    of :func:`_simulate_tag` — then one
    :meth:`~repro.bsrx.demodulator.BackscatterDemodulator.demodulate_many`
    call demodulates every participating tag over its own owned
    half-frames: each half-frame stacks only its owners' slices, and no
    whole capture is stacked.  Returns ``[(elapsed, TagResult)]`` in task
    order, bit-identical to mapping :func:`_simulate_tag` (asserted by
    the fleet equality tests).  All tasks must share one capture
    geometry (same bandwidth and frame count), which every deployment
    guarantees.
    """
    results = [None] * len(tasks)
    front_elapsed = {}
    live = []
    for i, task in enumerate(tasks):
        start = time.perf_counter()
        if not task.owned:
            result = _tag_result(task)
            elapsed = time.perf_counter() - start
            result.elapsed_seconds = elapsed
            results[i] = (elapsed, result)
            continue
        ambient = task.ambient
        if hasattr(ambient, "load"):
            ambient = ambient.load()
        system = LScatterSystem(task.config, rng=task.seed)
        front = system.run_frontend(
            payload_length=task.payload_length,
            ambient=ambient,
            owned_half_frames=task.owned,
        )
        front_elapsed[i] = time.perf_counter() - start
        live.append((i, system, front))
    if live:
        demod_start = time.perf_counter()
        fronts = [front for (_, _, front) in live]
        demods = live[0][1].demodulator.demodulate_many(
            [front.shifted_rx for front in fronts],
            [front.reference for front in fronts],
            [front.half_starts for front in fronts],
        )
        demod_share = (time.perf_counter() - demod_start) / len(live)
        for (i, system, front), demod in zip(live, demods):
            finalize_start = time.perf_counter()
            result = _tag_result(tasks[i], system.finalize_run(front, demod))
            elapsed = (
                front_elapsed[i]
                + demod_share
                + (time.perf_counter() - finalize_start)
            )
            result.elapsed_seconds = elapsed
            results[i] = (elapsed, result)
    return results


@dataclass
class FleetPlan:
    """The deterministic half of a fleet run: schedule plus tag tasks.

    Everything stochastic (MAC draws, per-tag seeds) is already fixed in
    the plan, so the tasks can be executed by any substrate — the
    :class:`~repro.fleet.engine.ParallelRunEngine`, the batched parent
    pass, or the :class:`repro.service.FleetService` job queue — and
    produce bit-identical :class:`~repro.fleet.report.TagResult`\\ s.
    """

    schedule: object
    tasks: list


class FleetRunner:
    """One multi-tag network simulation over a shared ambient capture."""

    def __init__(
        self,
        deployment,
        scheme="tdma",
        workers=1,
        seed=0,
        cache=None,
        task_timeout_seconds=None,
        on_error="raise",
        infra_faults=None,
        trace=False,
        batch_tags=False,
    ):
        require_whole("workers", workers, minimum=1)
        require_timeout(task_timeout_seconds)
        self.deployment = deployment
        self.scheme = scheme
        self.workers = int(workers)
        self.seed = int(seed)
        #: A caller-provided cache is shared (the caller closes it); one
        #: we created ourselves is ours to clean up in :meth:`close`.
        self._owns_cache = cache is None
        self.cache = cache if cache is not None else AmbientCache()
        self.task_timeout_seconds = task_timeout_seconds
        self.on_error = on_error
        #: Optional :class:`repro.faults.plan.InfraFaults` — wraps the
        #: task function so selected tasks crash or hang *in workers only*
        #: (parent retries stay clean and reproduce exact results).
        self.infra_faults = infra_faults
        #: Collect per-tag span trees + counter deltas and merge them
        #: into the report's ``stage_breakdown``/``counters``.
        self.trace = bool(trace)
        #: Stack every tag into one batched cross-tag demod pass in the
        #: parent process (bit-identical to the per-tag engine path).
        self.batch_tags = bool(batch_tags)
        if self.batch_tags and self.trace:
            raise ValueError(
                "batch_tags=True shares one demod pass across tags, so "
                "per-tag span trees cannot be attributed; run trace=True "
                "with the per-tag engine path instead"
            )
        if self.batch_tags and self.infra_faults is not None:
            raise ValueError(
                "batch_tags=True runs in the parent process; infra fault "
                "injection targets worker tasks — use the per-tag engine "
                "path"
            )
        if self.batch_tags and deployment.substrate != "chip":
            raise ValueError(
                f"batch_tags=True stacks captures through the chip "
                f"demodulator's demodulate_many pass, which substrate "
                f"{deployment.substrate!r} does not provide; run the per-tag "
                "engine path"
            )

    def close(self):
        """Release the ambient cache's scratch files if we own the cache."""
        if self._owns_cache:
            self.cache.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _scheme(self):
        if isinstance(self.scheme, str):
            return make_scheme(self.scheme)
        return self.scheme

    def plan(self, payload_length=20000, parallel=False):
        """Build the deterministic :class:`FleetPlan` for this fleet.

        Seeds — one stream for the MAC scheme, one per tag — are all
        spawned here in the parent, so results never depend on which
        substrate later executes the tasks or in what order.  ``parallel``
        picks the ambient sharing mode: a memory-mapped
        :class:`~repro.fleet.ambient.AmbientHandle` for worker processes,
        or the in-memory stage for anything running in this process
        (serial, batched, and the service's worker threads).
        """
        require_whole("payload_length", payload_length, minimum=0)
        deployment = self.deployment
        n_tags = deployment.n_tags

        root = np.random.SeedSequence(self.seed)
        sched_seq, *tag_seqs = root.spawn(1 + n_tags)
        tag_seeds = [int(seq.generate_state(1)[0]) for seq in tag_seqs]

        scheduler = FleetScheduler(
            self._scheme(), rng=np.random.default_rng(sched_seq)
        )
        schedule = scheduler.assign(
            deployment.names,
            deployment.n_half_frames,
            deployment.tag_powers_dbm(),
        )

        base_config = deployment.base_config()
        if parallel:
            ambient = self.cache.handle(
                base_config,
                self.seed,
                include_frames=deployment.reference_mode == "decoded",
            )
        else:
            # In-process paths share the in-memory stage directly, no
            # scratch spill needed.
            ambient = self.cache.get(base_config, self.seed)

        tasks = []
        for index, placement in enumerate(deployment.tags):
            tasks.append(
                TagTask(
                    index=index,
                    name=placement.name,
                    config=deployment.config_for(placement),
                    seed=tag_seeds[index],
                    owned=tuple(schedule.owned_half_frames(placement.name)),
                    collided=len(schedule.collided_half_frames(placement.name)),
                    payload_length=int(payload_length),
                    enb_to_tag_ft=placement.enb_to_tag_ft,
                    tag_to_ue_ft=placement.tag_to_ue_ft,
                    ambient=ambient,
                    trace=self.trace,
                )
            )
        return FleetPlan(schedule=schedule, tasks=tasks)

    def run(self, payload_length=20000):
        """Simulate the fleet; returns a :class:`FleetReport`."""
        engine = ParallelRunEngine(
            workers=self.workers,
            task_timeout_seconds=self.task_timeout_seconds,
            on_error=self.on_error,
        )
        plan = self.plan(
            payload_length=payload_length,
            parallel=(
                engine.workers > 1
                and self.deployment.n_tags > 1
                and not self.batch_tags
            ),
        )
        schedule, tasks = plan.schedule, plan.tasks

        if self.batch_tags:
            # The batched pass runs in the parent, on one core: no engine
            # processes involved.
            engine.telemetry.workers = 1
            wall_start = time.perf_counter()
            raw = []
            for elapsed, result in _simulate_tags_batched(tasks):
                engine.telemetry.task_seconds += elapsed
                raw.append(result)
            engine.telemetry.wall_seconds = time.perf_counter() - wall_start
        else:
            task_fn = FaultyTask.from_faults(_simulate_tag, self.infra_faults)
            raw = engine.map(task_fn, tasks)
        return self.assemble_report(schedule, raw, telemetry=engine.telemetry)

    def assemble_report(self, schedule, raw, telemetry):
        """Fold per-tag results back into a :class:`FleetReport`.

        ``raw`` holds one entry per deployment tag, in tag order — either
        a :class:`~repro.fleet.report.TagResult` or a
        :class:`~repro.fleet.engine.TaskFailure` sentinel (converted to a
        ``failed=True`` row).  ``telemetry`` is the executing substrate's
        :class:`~repro.fleet.engine.EngineTelemetry`: the engine's, or the
        service's own view.
        """
        results = [
            TagResult(
                name=placement.name,
                enb_to_tag_ft=placement.enb_to_tag_ft,
                tag_to_ue_ft=placement.tag_to_ue_ft,
                failed=True,
                error=result.error,
            )
            if isinstance(result, TaskFailure)
            else result
            for placement, result in zip(self.deployment.tags, raw)
        ]
        return fleet_report(
            schedule, results, telemetry, self.cache.transmit_calls
        )
