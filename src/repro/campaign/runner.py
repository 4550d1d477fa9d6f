"""Execute campaign shards through the parallel engine, with resume.

The runner glues the campaign substrates together:

1. :func:`~repro.campaign.spec.build_shards` expands the spec into the
   deterministic seeded grid; a job optionally owns only the round-robin
   ``--shard-index`` slice of it;
2. completed shards already on disk (``--resume``) are verified against
   their CRC + identity and skipped; corrupt or stale checkpoints are
   re-run;
3. the rest fan out through
   :class:`~repro.fleet.engine.ParallelRunEngine` — same retry, timeout
   and partial-failure machinery as the fleet — and every harvested
   result is checkpointed *immediately* via the engine's ``on_result``
   hook, so a campaign killed mid-flight keeps everything it finished;
4. a per-job manifest records shard statuses, and when every shard of
   the *full* grid has a verified checkpoint the rows are aggregated, in
   grid order, into the exact result ``run_experiment`` produces.

IQ-level points executed inside long-lived workers share eNodeB captures
through :func:`repro.fleet.ambient.process_cache`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.campaign.checkpoint import CheckpointStore
from repro.experiments.registry import get_campaign
from repro.campaign.spec import build_shards, check_slice, select_shards
from repro.fleet.engine import ParallelRunEngine, TaskFailure
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.validation import require_whole


@dataclass
class ShardTask:
    """Self-contained, picklable payload for one shard execution."""

    experiment: str
    shard_id: str
    index: int
    params: dict
    seed: int


@dataclass
class ShardOutcome:
    """What happened to one shard in this job."""

    shard_id: str
    index: int
    #: ``completed`` (executed + checkpointed), ``resumed`` (verified
    #: checkpoint reused), or ``failed`` (exhausted every retry).
    status: str
    row: dict = None
    error: str = None
    elapsed_seconds: float = 0.0


@dataclass
class CampaignReport:
    """One campaign job's outcomes plus the aggregate when complete."""

    experiment: str
    seed: int
    smoke: bool
    run_dir: str
    n_shards: int
    shard_index: int  # None when the job owns the whole grid
    #: Shards in the full grid / owned by this job.
    total_shards: int = 0
    outcomes: list = field(default_factory=list)
    #: Full-grid shards with a verified checkpoint after this job ran.
    checkpointed: int = 0
    #: Aggregated ExperimentResult; ``None`` until the grid is complete.
    result: object = None
    manifest_path: str = None
    telemetry: object = None

    def count(self, status):
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def completed(self):
        return self.count("completed")

    @property
    def resumed(self):
        return self.count("resumed")

    @property
    def failed(self):
        return self.count("failed")


def _execute_shard(task):
    """Run one shard's pure point function; ``(elapsed, result)``.

    Module-level and argument-pure so it pickles into workers and
    reproduces exactly when retried in the parent.
    """
    start = time.perf_counter()
    definition = get_campaign(task.experiment)
    with span(
        "campaign.shard", experiment=task.experiment, shard=task.shard_id
    ):
        row = definition.run_point(dict(task.params), task.seed)
    elapsed = time.perf_counter() - start
    return elapsed, {"row": row, "elapsed_seconds": elapsed}


class CampaignRunner:
    """Run (part of) a campaign into a checkpointed run directory."""

    def __init__(
        self,
        spec,
        run_dir,
        workers=1,
        n_shards=1,
        shard_index=None,
        resume=False,
        on_error="raise",
    ):
        require_whole("workers", workers, minimum=1)
        require_whole("n_shards", n_shards, minimum=1)
        if shard_index is not None:
            check_slice(n_shards, shard_index)
        self.spec = spec
        self.run_dir = str(run_dir)
        self.workers = int(workers)
        self.n_shards = int(n_shards)
        self.shard_index = None if shard_index is None else int(shard_index)
        self.resume = bool(resume)
        self.on_error = on_error

    def _owned(self, shards):
        if self.shard_index is not None:
            return select_shards(shards, self.n_shards, self.shard_index)
        if self.n_shards == 1:
            return list(shards)
        # No index: run every slice, in slice order, through the same
        # partitioning — `--shards N` without an index exercises exactly
        # what N separate jobs would do, one slice after another.
        owned = []
        for index in range(self.n_shards):
            owned.extend(select_shards(shards, self.n_shards, index))
        return owned

    def run(self):
        """Execute this job's shards; returns a :class:`CampaignReport`.

        With ``on_error='raise'`` (the default) a shard that fails every
        retry propagates — already-checkpointed shards stay on disk and a
        ``--resume`` rerun picks up from them.
        """
        spec = self.spec
        definition = get_campaign(spec.experiment)
        shards = build_shards(spec)
        owned = self._owned(shards)
        store = CheckpointStore(self.run_dir)

        outcomes = {}
        to_run = []
        for shard in owned:
            if self.resume:
                status, row = store.verify(shard)
                if status == "ok":
                    obs_metrics.counter_inc("campaign.shards_skipped")
                    outcomes[shard.index] = ShardOutcome(
                        shard_id=shard.shard_id,
                        index=shard.index,
                        status="resumed",
                        row=row,
                    )
                    continue
                if status in ("corrupt", "stale"):
                    obs_metrics.counter_inc("campaign.checkpoints_corrupt")
            to_run.append(shard)

        engine = ParallelRunEngine(
            workers=self.workers,
            on_error=self.on_error,
        )

        def _harvest(position, result):
            shard = to_run[position]
            if isinstance(result, TaskFailure):
                obs_metrics.counter_inc("campaign.shards_failed")
                outcomes[shard.index] = ShardOutcome(
                    shard_id=shard.shard_id,
                    index=shard.index,
                    status="failed",
                    error=result.error,
                )
                return
            store.write(shard, result["row"])
            obs_metrics.counter_inc("campaign.shards_completed")
            outcomes[shard.index] = ShardOutcome(
                shard_id=shard.shard_id,
                index=shard.index,
                status="completed",
                row=result["row"],
                elapsed_seconds=result["elapsed_seconds"],
            )

        if to_run:
            tasks = [
                ShardTask(
                    experiment=shard.experiment,
                    shard_id=shard.shard_id,
                    index=shard.index,
                    params=dict(shard.params),
                    seed=shard.seed,
                )
                for shard in to_run
            ]
            engine.map(_execute_shard, tasks, on_result=_harvest)

        report = CampaignReport(
            experiment=spec.experiment,
            seed=spec.seed,
            smoke=spec.smoke,
            run_dir=self.run_dir,
            n_shards=self.n_shards,
            shard_index=self.shard_index,
            total_shards=len(shards),
            outcomes=[outcomes[s.index] for s in owned if s.index in outcomes],
            telemetry=engine.telemetry,
        )

        entries = [
            {
                "shard_id": o.shard_id,
                "index": o.index,
                "params": next(
                    s.params for s in owned if s.index == o.index
                ),
                "seed": next(s.seed for s in owned if s.index == o.index),
                "status": o.status,
                "elapsed_seconds": o.elapsed_seconds,
                "error": o.error,
            }
            for o in report.outcomes
        ]
        report.manifest_path = store.write_manifest(
            spec, self.n_shards, self.shard_index, entries
        )

        # Aggregate when the *full* grid is verifiably checkpointed —
        # regardless of which jobs (this one, earlier ones, other matrix
        # entries writing to the same run dir) produced the shards.
        rows = []
        checkpointed = 0
        for shard in shards:
            status, row = store.verify(shard)
            if status == "ok":
                checkpointed += 1
                rows.append(row)
        report.checkpointed = checkpointed
        if checkpointed == len(shards):
            report.result = definition.aggregate(rows, seed=spec.seed)
        return report
