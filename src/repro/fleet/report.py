"""Aggregate results of one fleet run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lte.params import FRAME_SECONDS
from repro.obs import trace as obs_trace


@dataclass
class TagResult:
    """One tag's outcome inside a fleet run."""

    name: str
    enb_to_tag_ft: float
    tag_to_ue_ft: float
    n_bits: int = 0
    n_errors: int = 0
    n_windows: int = 0
    n_lost_windows: int = 0
    sync_error_us: float = float("nan")
    #: Half-frames this tag successfully owned / lost to collisions.
    owned_half_frames: int = 0
    collided_half_frames: int = 0
    #: Wall-clock cost of this tag's simulation stage.
    elapsed_seconds: float = 0.0
    #: Receiver windows declared erasures (sync loss) — airtime that
    #: carried no countable bits; excluded from BER by construction.
    n_erased_windows: int = 0
    #: Set when the tag's task exhausted every retry (partial mode); the
    #: counters above are then all zero and ``error`` says why.
    failed: bool = False
    error: str = ""
    #: Serialised span trees (``repro.obs.trace.to_dict`` dicts) of the
    #: tag's stage, shipped back from the worker when tracing was on.
    trace: list = field(default_factory=list)
    #: Counter deltas this tag's task contributed (worker before/after).
    metrics: dict = field(default_factory=dict)

    @property
    def ber(self):
        """Signal-level BER over the tag's successful airtime."""
        if self.n_bits == 0:
            return float("nan")
        return self.n_errors / self.n_bits

    @property
    def good_bits(self):
        return self.n_bits - self.n_errors

    def throughput_bps(self, capture_seconds):
        """Good backscatter bits per second of *capture* time.

        Collided half-frames carried bits that never decoded, so they
        contribute airtime but no goodput — the network-level measure the
        fleetN experiment sweeps.
        """
        if capture_seconds <= 0:
            return 0.0
        return self.good_bits / capture_seconds


@dataclass
class FleetReport:
    """Everything one :class:`~repro.fleet.runner.FleetRunner` run produced."""

    scheme: str
    n_tags: int
    n_half_frames: int
    duration_seconds: float
    tags: list = field(default_factory=list)
    collision_fraction: float = 0.0
    idle_fraction: float = 0.0
    airtime_utilisation: float = 0.0
    #: Run-engine telemetry.
    workers: int = 1
    wall_seconds: float = 0.0
    serial_seconds_estimate: float = 0.0
    speedup: float = 1.0
    retried_tasks: int = 0
    #: Tags whose tasks failed every retry (partial mode only).
    failed_tags: int = 0
    #: Tasks harvested past the per-task timeout budget (hung workers).
    timed_out_tasks: int = 0
    #: How many times the eNodeB capture was actually generated.
    transmit_invocations: int = 0
    #: Merged per-stage telemetry across every traced tag:
    #: ``{stage: {wall_seconds, self_seconds, cpu_seconds, count}}``
    #: (empty without ``trace=True`` on the runner).
    stage_breakdown: dict = field(default_factory=dict)
    #: Summed counter deltas across every tag's task.
    counters: dict = field(default_factory=dict)

    @property
    def aggregate_throughput_bps(self):
        """Network goodput: every tag's good bits over the capture time."""
        return sum(t.throughput_bps(self.duration_seconds) for t in self.tags)

    @property
    def mean_ber(self):
        measured = [t.ber for t in self.tags if t.n_bits > 0]
        if not measured:
            return float("nan")
        return sum(measured) / len(measured)

    def tag(self, name):
        for result in self.tags:
            if result.name == name:
                return result
        raise KeyError(name)

    def format_table(self):
        """Plain-text per-tag table plus the aggregate footer."""
        header = (
            f"{'tag':8s} {'enb_ft':>7s} {'ue_ft':>6s} {'half-frames':>11s} "
            f"{'collided':>8s} {'bits':>8s} {'BER':>10s} {'kbps':>9s}"
        )
        lines = [header]
        for t in self.tags:
            if t.failed:
                lines.append(
                    f"{t.name:8s} {t.enb_to_tag_ft:7.1f} {t.tag_to_ue_ft:6.1f} "
                    f"  FAILED: {t.error}"
                )
                continue
            ber = f"{t.ber:.3e}" if t.n_bits else "-"
            lines.append(
                f"{t.name:8s} {t.enb_to_tag_ft:7.1f} {t.tag_to_ue_ft:6.1f} "
                f"{t.owned_half_frames:11d} {t.collided_half_frames:8d} "
                f"{t.n_bits:8d} {ber:>10s} "
                f"{t.throughput_bps(self.duration_seconds) / 1e3:9.1f}"
            )
        lines.append(
            f"aggregate: {self.aggregate_throughput_bps / 1e6:.3f} Mbps over "
            f"{self.duration_seconds * 1e3:.0f} ms "
            f"({self.n_half_frames} half-frames, scheme={self.scheme})"
        )
        lines.append(
            f"airtime: {self.airtime_utilisation:.0%} used, "
            f"{self.collision_fraction:.0%} collided, "
            f"{self.idle_fraction:.0%} idle"
        )
        lines.append(
            f"engine: {self.workers} worker(s), wall {self.wall_seconds:.2f} s, "
            f"serial-equivalent {self.serial_seconds_estimate:.2f} s "
            f"(speedup {self.speedup:.2f}x), "
            f"{self.transmit_invocations} eNodeB transmit call(s)"
        )
        if self.failed_tags or self.timed_out_tasks:
            lines.append(
                f"faults: {self.failed_tags} tag(s) failed, "
                f"{self.timed_out_tasks} task(s) timed out"
            )
        if self.stage_breakdown:
            lines.append(self.format_telemetry())
        return "\n".join(lines)

    def format_telemetry(self):
        """Per-stage breakdown merged across tags, plus summed counters.

        Stages are sorted by self time (wall time minus nested stages'),
        so a saving inside a nested stage is listed once.
        """
        lines = ["telemetry (merged across tags):"]
        ordered = sorted(
            self.stage_breakdown.items(),
            key=lambda item: item[1]["self_seconds"],
            reverse=True,
        )
        for name, entry in ordered:
            lines.append(
                f"  {name:<24s} self {entry['self_seconds'] * 1e3:9.2f} ms  "
                f"wall {entry['wall_seconds'] * 1e3:9.2f} ms  "
                f"cpu {entry['cpu_seconds'] * 1e3:9.2f} ms  x{entry['count']}"
            )
        if self.counters:
            pairs = ", ".join(
                f"{name}={value}" for name, value in sorted(self.counters.items())
            )
            lines.append(f"  counters: {pairs}")
        return "\n".join(lines)


def fleet_report(schedule, results, telemetry, transmit_invocations):
    """One MAC schedule's per-tag results, in tag order, as a report.

    Traced results merge: same-named stages sum across tags and counter
    deltas add up — the per-fleet view of what each stage cost.
    """
    stage_breakdown = {}
    counters = {}
    for result in results:
        obs_trace.flatten_stages(result.trace, into=stage_breakdown)
        for name, value in result.metrics.items():
            counters[name] = counters.get(name, 0) + value
    return FleetReport(
        scheme=schedule.scheme,
        n_tags=len(results),
        n_half_frames=schedule.n_half_frames,
        duration_seconds=capture_seconds(schedule.n_half_frames),
        tags=results,
        collision_fraction=schedule.collision_fraction,
        idle_fraction=schedule.idle_fraction,
        airtime_utilisation=schedule.airtime_utilisation,
        workers=telemetry.workers,
        wall_seconds=telemetry.wall_seconds,
        serial_seconds_estimate=telemetry.task_seconds,
        speedup=telemetry.speedup,
        retried_tasks=telemetry.retried,
        failed_tags=sum(1 for r in results if r.failed),
        timed_out_tasks=telemetry.timed_out,
        transmit_invocations=transmit_invocations,
        stage_breakdown=stage_breakdown,
        counters=counters,
    )


def capture_seconds(n_half_frames):
    """Duration of ``n_half_frames`` half-frames."""
    return n_half_frames * (FRAME_SECONDS / 2.0)
