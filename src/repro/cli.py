"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``simulate`` — run one end-to-end IQ simulation from flags;
* ``experiment`` — regenerate a paper table/figure (``python -m
  repro.experiments`` runs this command);
* ``survey`` — print the ambient-traffic survey for a venue;
* ``fleet`` — multi-tag network simulation over one shared ambient cell;
* ``network`` — city-scale multi-cell simulation: cell search/attach and
  inter-cell interference over static tags (see DESIGN.md §15);
* ``trace`` — run with stage tracing on and write a Chrome trace JSON;
* ``chaos`` — fault-injection sweeps and degradation curves;
* ``stress`` — adversarial-scenario sweeps and degradation curves;
* ``substrates`` — cross-substrate comparison suite over every
  registered ambient-substrate mode; writes ``SUBSTRATES_PR10.json``
  (see DESIGN.md §19);
* ``campaign`` — sharded, resumable execution of a registry experiment
  with per-shard checkpoints (see DESIGN.md §13);
* ``serve`` — run the always-on fleet service; with ``--soak`` it drives
  the checkpointed soak harness and writes ``SOAK_PR9.json`` (see
  DESIGN.md §18);
* ``report`` — write the full evaluation report.

Installed as the ``repro`` console script (and ``lscatter``, its alias).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np


def _refuse_overwrite(path, force):
    """Guard for commands whose output path may hold previous results.

    Returns an error exit code, or ``None`` when writing is allowed.
    Overwriting is opt-in (``--force``) because trace/fleet outputs
    default to the same committed filename.
    """
    if force or not os.path.exists(path):
        return None
    return _fail_usage(
        f"output file {path!r} already exists; pass --force to overwrite"
    )


def _validate_substrate(name):
    """Usage-error exit code for an unknown substrate name, else ``None``."""
    from repro.substrates import available_substrates

    if name is not None and name not in available_substrates():
        return _fail_usage(
            f"unknown substrate {name!r}; choose from "
            f"{', '.join(available_substrates())}"
        )
    return None


def _cmd_simulate(args):
    if args.payload < 0:
        return _fail_usage(f"--payload must be >= 0, got {args.payload}")
    error = _validate_substrate(args.substrate)
    if error is not None:
        return error
    from repro.core import LScatterSystem, SystemConfig

    try:
        config = SystemConfig(
            bandwidth_mhz=args.bandwidth,
            venue=args.venue,
            enb_to_tag_ft=args.enb_to_tag,
            tag_to_ue_ft=args.tag_to_ue,
            tx_power_dbm=args.tx_power,
            n_frames=args.frames,
            sync_mode="circuit" if args.circuit_sync else "model",
            reference_mode="decoded" if args.decoded_reference else "genie",
            substrate=args.substrate,
        )
        system = LScatterSystem(config, rng=args.seed)
    except ValueError as exc:
        # e.g. --frames 0, or srs-uplink with --decoded-reference /
        # --circuit-sync.
        return _fail_usage(str(exc))
    report = system.run(payload_length=args.payload)
    print(f"bandwidth      : {args.bandwidth} MHz ({args.venue})")
    print(f"geometry       : eNodeB --{args.enb_to_tag} ft-- tag --{args.tag_to_ue} ft-- UE")
    print(f"sync error     : {report.sync_error_us:+.2f} us")
    print(f"chips carried  : {report.n_bits}")
    print(f"bit errors     : {report.n_errors} (BER {report.ber:.3e})")
    print(f"throughput     : {report.throughput_bps / 1e6:.3f} Mbps")
    if not np.isnan(report.lte_block_error_rate):
        print(
            f"ambient LTE    : BLER {report.lte_block_error_rate:.3f}, "
            f"{report.lte_throughput_bps / 1e6:.2f} Mbps"
        )
    return 0


def _experiment(experiment_id, substrate=None):
    """Check an experiment id and its ``--substrate`` filter.

    Returns ``run(seed)``, which runs the experiment and prints its table,
    or ``None`` after a one-line usage error.
    """
    from repro.experiments.registry import experiment_keywords, run_experiment
    from repro.substrates import get_substrate

    kwargs = {}
    try:
        keywords = experiment_keywords(experiment_id)
        if substrate is not None:
            if "substrate" not in keywords:
                _fail_usage(
                    f"experiment {experiment_id!r} does not take a "
                    "--substrate filter"
                )
                return None
            get_substrate(substrate)
            kwargs["substrate"] = substrate
    except KeyError as exc:
        _fail_usage(exc.args[0])
        return None

    def run(seed):
        result = run_experiment(experiment_id, seed=seed, **kwargs)
        print(f"# {result.name}: {result.description}")
        print(result.format_table())
        if result.notes:
            print(f"# {result.notes}")

    return run


def _cmd_experiment(args):
    if args.list or not args.id:
        from repro.experiments.registry import REGISTRY

        for key in sorted(REGISTRY):
            print(f"{key:8s} {REGISTRY[key][1]}")
        return 0
    run = _experiment(args.id, args.substrate)
    if run is None:
        return 2
    run(args.seed)
    return 0


def _run_pipeline_probe(seed=0):
    """One tiny end-to-end run under a ``trace.probe`` span.

    Several experiments are analytic (pure numpy, no IQ pipeline), so
    ``repro trace <experiment>`` alone could produce a trace with no
    sync/equalise/demod stages.  The probe guarantees every pipeline
    stage appears in every trace; ``--no-probe`` disables it.
    """
    from repro.core import LScatterSystem, SystemConfig
    from repro.obs.trace import span

    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=2,
        multipath=False,
        add_noise=False,
        sync_error_samples=0,
        reference_mode="decoded",
    )
    with span("trace.probe"):
        LScatterSystem(config, rng=seed).run(payload_length=500)


def _validate_chrome_trace(path):
    """Re-read a written trace and check the Trace Event Format shape.

    Returns an error string or ``None``; the command fails loudly rather
    than shipping a file chrome://tracing cannot load.
    """
    import json

    with open(path) as fh:
        payload = json.load(fh)
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return "trace has no events"
    for event in events:
        if event.get("ph") == "M":
            continue
        if event.get("ph") != "X":
            return f"unexpected event phase {event.get('ph')!r}"
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in event:
                return f"event missing {key!r}"
    return None


def _cmd_trace(args):
    error = _refuse_overwrite(args.output, args.force)
    if error is not None:
        return error
    run = None
    if args.id:
        # An unknown id fails here, before tracing starts or a file is written.
        run = _experiment(args.id)
        if run is None:
            return 2
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.export import format_span_tree, write_chrome_trace

    obs_trace.enable()
    obs_trace.reset()
    obs_metrics.reset_metrics()
    try:
        if run is not None:
            run(args.seed)
        if not args.no_probe:
            _run_pipeline_probe(seed=args.seed)
    finally:
        obs_trace.disable()
    roots = obs_trace.snapshot()
    n_events = write_chrome_trace(args.output, roots=roots)
    error = _validate_chrome_trace(args.output)
    if error is not None:
        print(f"repro: error: invalid trace written: {error}", file=sys.stderr)
        return 1
    print(format_span_tree(roots))
    counters = obs_metrics.counters_snapshot()
    if counters:
        print(
            "counters: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )
    print(f"wrote {args.output} ({n_events} events)")
    return 0


def _fail_usage(message):
    """One-line actionable argument error; exit code 2 like argparse."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _validate_fleet(args):
    if args.tags < 1:
        return _fail_usage(f"--tags must be >= 1, got {args.tags}")
    if args.workers < 1:
        return _fail_usage(f"--workers must be >= 1, got {args.workers}")
    if args.frames < 1:
        return _fail_usage(f"--frames must be >= 1, got {args.frames}")
    if args.payload < 0:
        return _fail_usage(f"--payload must be >= 0, got {args.payload}")
    return _validate_substrate(args.substrate)


def _cmd_fleet(args):
    error = _validate_fleet(args)
    if error is not None:
        return error
    if args.trace:
        error = _refuse_overwrite(args.trace_output, args.force)
        if error is not None:
            return error
    from repro.fleet import Deployment, FleetRunner

    try:
        deployment = Deployment.ring(
            args.tags,
            venue=args.venue,
            bandwidth_mhz=args.bandwidth,
            n_frames=args.frames,
            substrate=args.substrate,
        )
        runner = FleetRunner(
            deployment,
            scheme=args.scheme,
            workers=args.workers,
            seed=args.seed,
            trace=args.trace,
            batch_tags=args.batch_tags,
        )
    except ValueError as exc:
        # e.g. --venue nowhere, --bandwidth 7, or --batch-tags with
        # --trace or off the chip substrate.
        return _fail_usage(str(exc))
    with runner:
        report = runner.run(payload_length=args.payload)
    print(
        f"FleetReport: {report.n_tags} tag(s), scheme={report.scheme}, "
        f"{args.bandwidth} MHz ({args.venue})"
    )
    print(report.format_table())
    if args.trace:
        from repro.obs.export import write_chrome_trace
        from repro.obs.trace import from_dict

        tracks = {
            tag.name: [from_dict(d) for d in tag.trace] for tag in report.tags
        }
        n_events = write_chrome_trace(args.trace_output, tracks=tracks)
        error = _validate_chrome_trace(args.trace_output)
        if error is not None:
            print(
                f"repro: error: invalid trace written: {error}", file=sys.stderr
            )
            return 1
        print(f"wrote {args.trace_output} ({n_events} events)")
    return 0


def _validate_network(args):
    if args.tags < 1:
        return _fail_usage(f"--tags must be >= 1, got {args.tags}")
    if args.workers < 1:
        return _fail_usage(f"--workers must be >= 1, got {args.workers}")
    if args.frames < 1:
        return _fail_usage(f"--frames must be >= 1, got {args.frames}")
    if not (math.isfinite(args.isd) and args.isd > 0):
        return _fail_usage(f"--isd must be positive and finite, got {args.isd}")
    if args.payload < 0:
        return _fail_usage(f"--payload must be >= 0, got {args.payload}")
    if args.layout == "hex" and args.rings < 0:
        return _fail_usage(f"--rings must be >= 0, got {args.rings}")
    if args.layout == "grid" and (args.rows < 1 or args.cols < 1):
        return _fail_usage(
            f"--rows/--cols must be >= 1, got {args.rows}x{args.cols}"
        )
    return None


def _cmd_network(args):
    error = _validate_network(args)
    if error is not None:
        return error
    from repro.cells import NetworkDeployment, NetworkRunner, Topology
    from repro.utils.integrity import write_json

    # Mirror chaos: smoke runs default to artifacts/ so CI never
    # clobbers the committed full-mode report (NETWORK_PR6.json).
    output = args.output
    if output is None:
        output = (
            "artifacts/network_smoke.json" if args.smoke else "NETWORK_PR6.json"
        )
    error = _refuse_overwrite(output, args.force)
    if error is not None:
        return error

    n_frames = 1 if args.smoke else args.frames
    n_tags = min(args.tags, 4) if args.smoke else args.tags
    try:
        if args.layout == "grid":
            topology = Topology.grid(
                args.rows, args.cols, spacing_ft=args.isd, n_frames=n_frames
            )
        else:
            rings = 1 if args.smoke else args.rings
            topology = Topology.hex_cluster(
                inter_site_ft=args.isd, rings=rings, n_frames=n_frames
            )
        deployment = NetworkDeployment.scatter(
            n_tags, topology, seed=args.seed, margin_ft=args.isd / 3.0
        )
        runner = NetworkRunner(
            topology,
            deployment,
            scheme=args.scheme,
            workers=args.workers,
            seed=args.seed,
            attach_mode=args.attach,
            payload_length=args.payload,
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    with runner:
        report = runner.run()

    print(
        f"NetworkReport: {report.n_cells} cell(s) "
        f"({args.layout}, {args.isd:g} ft pitch), {report.n_tags} tag(s), "
        f"scheme={report.scheme}"
    )
    print(report.format_table())
    write_json(output, report.summary())
    print(f"wrote {output}")
    return 0


def _print_sweeps(prefix, sweeps, name_key, width):
    """One line per chaos/stress degradation curve: goodputs and gate flag."""
    for sweep in sweeps:
        goodputs = ", ".join(
            f"{(p['goodput_bps'] or 0.0) / 1e3:.1f}" for p in sweep["points"]
        )
        if sweep["monotone_goodput"]:
            flag = "monotone"
        elif sweep["monotone_required"]:
            flag = "NOT MONOTONE"
        else:
            flag = "non-monotone (threshold fault, not gated)"
        name = f"{sweep[name_key]:{width}s}"
        print(f"{prefix}: {name} goodput kbps [{goodputs}] {flag}")


def _cmd_chaos(args):
    if not 0.0 <= args.max_severity <= 1.0:
        return _fail_usage(
            f"--max-severity must be in [0, 1], got {args.max_severity}"
        )
    from repro.faults.chaos import CHAOS_KINDS, run_chaos

    kinds = args.kinds.split(",") if args.kinds else None
    if kinds:
        for kind in kinds:
            if kind not in CHAOS_KINDS:
                return _fail_usage(
                    f"unknown chaos kind {kind!r}; choose from "
                    f"{', '.join(CHAOS_KINDS)}"
                )
    # Smoke runs default to artifacts/ so CI never clobbers the committed
    # full-mode report (CHAOS_PR3.json).
    output = args.output
    if output is None:
        output = "artifacts/chaos_smoke.json" if args.smoke else "CHAOS_PR3.json"
    error = _refuse_overwrite(output, args.force)
    if error is not None:
        return error
    report = run_chaos(
        output=output,
        smoke=args.smoke,
        seed=args.seed,
        max_severity=args.max_severity,
        kinds=kinds,
        fleet=not args.no_fleet,
    )
    noop_ok = "OK" if report["noop_contract"]["passed"] else "FAILED"
    print(f"chaos: no-op contract {noop_ok}")
    _print_sweeps("chaos", report["sweeps"], "kind", 8)
    if "fleet" in report:
        fleet = report["fleet"]
        print(
            f"chaos: fleet resilience "
            f"{'OK' if fleet['passed'] else 'FAILED'} "
            f"(retried {fleet['retried_tasks']}, "
            f"timed out {fleet['timed_out_tasks']}, "
            f"scratch regenerations "
            f"{fleet['scratch_corruption']['integrity_failures']})"
        )
    print(f"chaos: {'PASSED' if report['passed'] else 'FAILED'}")
    print(f"wrote {output}")
    return 0 if report["passed"] else 1


def _cmd_stress(args):
    if not 0.0 <= args.max_intensity <= 1.0:
        return _fail_usage(
            f"--max-intensity must be in [0, 1], got {args.max_intensity}"
        )
    from repro.stress import SCENARIOS, run_stress

    scenarios = args.scenarios.split(",") if args.scenarios else None
    if scenarios:
        for scenario in scenarios:
            if scenario not in SCENARIOS:
                return _fail_usage(
                    f"unknown stress scenario {scenario!r}; choose from "
                    f"{', '.join(SCENARIOS)}"
                )
    # Mirror chaos: smoke runs default to artifacts/ so CI never clobbers
    # the committed full-mode report (STRESS_PR8.json).
    output = args.output
    if output is None:
        output = (
            "artifacts/stress_smoke.json" if args.smoke else "STRESS_PR8.json"
        )
    error = _refuse_overwrite(output, args.force)
    if error is not None:
        return error
    report = run_stress(
        output=output,
        smoke=args.smoke,
        seed=args.seed,
        max_intensity=args.max_intensity,
        scenarios=scenarios,
    )
    noop_ok = "OK" if all(c["passed"] for c in report["noop_contracts"]) else "FAILED"
    print(f"stress: no-op contracts {noop_ok}")
    _print_sweeps("stress", report["sweeps"], "scenario", 16)
    for probe in report["sync_probes"]:
        held = "held" if not probe["adaptive"]["sync_failed"] else "LOST"
        print(
            f"stress: sync probe {probe['scenario']:16s} sync {held} "
            f"(attempts {probe['adaptive']['resync_attempts']}, "
            f"recovered {probe['resync_recovered']})"
        )
    degradation = report["degradation"]
    print(
        f"stress: mac backoff "
        f"{'OK' if degradation['mac_backoff']['passed'] else 'FAILED'} "
        f"(recovery {degradation['mac_backoff']['recovery_latency_slots']} "
        f"slots); arq "
        f"{'OK' if degradation['arq_jamming']['passed'] else 'FAILED'} "
        f"(bit-exact {degradation['arq_jamming']['all_bit_exact']})"
    )
    print(f"stress: {'PASSED' if report['passed'] else 'FAILED'}")
    print(f"wrote {output}")
    return 0 if report["passed"] else 1


def _cmd_substrates(args):
    error = _validate_substrate(args.substrate)
    if error is not None:
        return error
    # Mirror chaos/stress: smoke runs default to artifacts/ so CI never
    # clobbers the committed full-mode report (SUBSTRATES_PR10.json).
    output = args.output
    if output is None:
        output = (
            "artifacts/substrates_smoke.json"
            if args.smoke
            else "SUBSTRATES_PR10.json"
        )
    error = _refuse_overwrite(output, args.force)
    if error is not None:
        return error
    from repro.substrates.suite import format_report, run_suite

    report = run_suite(
        output,
        smoke=args.smoke,
        seed=args.seed,
        substrate=args.substrate,
    )
    print(format_report(report))
    print(f"wrote {output}")
    return 0 if report["passed"] else 1


def _cmd_campaign(args):
    from repro.campaign import CampaignRunner, CampaignSpec, campaign_capable
    from repro.experiments.registry import REGISTRY

    if args.list:
        capable = campaign_capable()
        for experiment_id in capable:
            print(f"{experiment_id:12s} {REGISTRY[experiment_id][1]}")
        return 0
    if not args.id:
        return _fail_usage("an experiment id is required (or --list)")
    if args.shards < 1:
        return _fail_usage(f"--shards must be >= 1, got {args.shards}")
    if args.shard_index is not None and not (
        0 <= args.shard_index < args.shards
    ):
        return _fail_usage(
            f"--shard-index must be in [0, {args.shards}), "
            f"got {args.shard_index}"
        )
    if args.workers < 1:
        return _fail_usage(f"--workers must be >= 1, got {args.workers}")

    spec = CampaignSpec(experiment=args.id, seed=args.seed, smoke=args.smoke)
    run_dir = args.run_dir
    if run_dir is None:
        run_dir = os.path.join(
            "artifacts", "campaign", args.id + ("-smoke" if args.smoke else "")
        )
    runner = CampaignRunner(
        spec,
        run_dir,
        workers=args.workers,
        n_shards=args.shards,
        shard_index=args.shard_index,
        resume=args.resume,
        on_error="partial",
    )
    try:
        report = runner.run()
    except KeyError as exc:
        return _fail_usage(str(exc.args[0]) if exc.args else str(exc))

    job = (
        "full grid"
        if args.shard_index is None
        else f"shard {args.shard_index}/{args.shards}"
    )
    # The nightly workflow greps this line ("resumed N") — keep wording
    # stable.
    print(
        f"campaign {spec.experiment}: {job}, {len(report.outcomes)} shard(s) "
        f"owned — completed {report.completed}, resumed {report.resumed}, "
        f"failed {report.failed}"
    )
    for outcome in report.outcomes:
        if outcome.status == "failed":
            print(f"  shard {outcome.shard_id} FAILED: {outcome.error}")
    print(f"manifest: {report.manifest_path}")
    if report.result is not None:
        print(
            f"grid complete ({report.checkpointed}/{report.total_shards} "
            f"checkpoints verified); aggregated result:"
        )
        print(report.result.format_table())
        if report.result.notes:
            print(f"# {report.result.notes}")
    else:
        print(
            f"grid incomplete: {report.checkpointed}/{report.total_shards} "
            f"shard checkpoints verified; run the remaining shard jobs "
            f"(or --resume) to aggregate"
        )
    return 1 if report.failed else 0


def _validate_serve(args):
    if args.sessions is not None and args.sessions < 1:
        return _fail_usage(f"--sessions must be >= 1, got {args.sessions}")
    if args.cohort_tags < 1:
        return _fail_usage(
            f"--cohort-tags must be >= 1, got {args.cohort_tags}"
        )
    if args.workers < 1:
        return _fail_usage(f"--workers must be >= 1, got {args.workers}")
    if args.queue_depth < 1:
        return _fail_usage(
            f"--queue-depth must be >= 1, got {args.queue_depth}"
        )
    if args.snapshot_every < 1:
        return _fail_usage(
            f"--snapshot-every must be >= 1, got {args.snapshot_every}"
        )
    if args.frames < 1:
        return _fail_usage(f"--frames must be >= 1, got {args.frames}")
    if args.payload < 1:
        return _fail_usage(f"--payload must be >= 1, got {args.payload}")
    if args.resume and not args.soak:
        return _fail_usage("--resume only applies to --soak runs")
    return None


def _latency_line(name, stats):
    if not stats["count"]:
        return f"serve: {name} latency: no sessions recorded"
    return (
        f"serve: {name} latency p50 {stats['p50_seconds'] * 1e3:.1f} ms, "
        f"p99 {stats['p99_seconds'] * 1e3:.1f} ms "
        f"({stats['count']} session(s))"
    )


def _cmd_serve(args):
    error = _validate_serve(args)
    if error is not None:
        return error
    # Mirror chaos/stress: smoke soaks default to artifacts/ so CI never
    # clobbers the committed full-mode report (SOAK_PR9.json).
    output = args.output
    if output is None:
        output = "artifacts/soak_smoke.json" if args.smoke else "SOAK_PR9.json"
    if args.soak and not args.resume:
        error = _refuse_overwrite(output, args.force)
        if error is not None:
            return error
    if args.snapshot is not None:
        error = _refuse_overwrite(args.snapshot, args.force)
        if error is not None:
            return error

    from repro.service import FleetService, default_spec, run_soak

    spec = default_spec(
        smoke=args.smoke,
        sessions=args.sessions,
        cohort_tags=args.cohort_tags,
        seed=args.seed,
        scheme=args.scheme,
        bandwidth_mhz=args.bandwidth,
        n_frames=args.frames,
        payload_length=args.payload,
    )

    if args.soak:
        run_dir = args.run_dir
        if run_dir is None:
            run_dir = os.path.join(
                "artifacts", "soak" + ("-smoke" if args.smoke else "")
            )
        report = run_soak(
            output,
            run_dir,
            spec,
            workers=args.workers,
            queue_depth=args.queue_depth,
            resume=args.resume,
            snapshot_path=args.snapshot,
            snapshot_every=args.snapshot_every,
        )
        progress = report["progress"]
        operations = report["operations"]
        aggregates = report["aggregates"]
        # The nightly workflow greps "completed N"/"resumed N"/
        # "equivalence OK" — keep wording stable.
        print(
            f"soak: {progress['total_cohorts']} cohort(s) "
            f"({aggregates['sessions']} session(s)) — "
            f"completed {progress['completed_cohorts']}, "
            f"resumed {progress['resumed_cohorts']}"
        )
        print(
            f"soak: throughput "
            f"{operations['throughput_sessions_per_second']:.2f} "
            f"session(s)/s over {operations['wall_seconds']:.1f} s wall, "
            f"{operations['workers']} worker(s), "
            f"peak RSS {operations['peak_rss_mb']:.1f} MB"
        )
        print(_latency_line("session", operations["session_latency"]))
        shed = operations["shed"]
        print(
            f"soak: shed {shed['count']}/{shed['attempts']} submissions "
            f"(rate {shed['rate']:.3f}), {operations['reloads']} reload(s), "
            f"{operations['snapshot_exports']} snapshot export(s)"
        )
        equivalence = report["equivalence"]
        print(
            f"soak: service-vs-batch equivalence "
            f"{'OK' if equivalence['passed'] else 'FAILED'} "
            f"({equivalence['checked_cohorts']} cohort(s) checked)"
        )
        print(f"wrote {output}")
        return 0 if report["passed"] else 1

    # Demo mode: one cohort burst through a live service, summary on
    # stdout — the quickest way to see the queue/worker/telemetry path.
    from repro.fleet import Deployment, FleetRunner

    deployment = Deployment.ring(
        spec["cohort_tags"],
        bandwidth_mhz=spec["bandwidth_mhz"],
        n_frames=spec["n_frames"],
    )
    with FleetService(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        snapshot_path=args.snapshot,
        snapshot_every=args.snapshot_every,
    ) as service:
        with FleetRunner(
            deployment, scheme=spec["scheme"], seed=spec["seed"]
        ) as runner:
            ticket = service.submit_fleet(
                runner, payload_length=spec["payload_length"]
            )
            report = service.fleet_result(ticket)
        service.drain()
        summary = service.summary()
    print(
        f"FleetService demo: {report.n_tags} session(s) through "
        f"{args.workers} worker(s), queue depth {args.queue_depth}"
    )
    print(report.format_table())
    queue = summary["queue"]
    print(
        f"serve: queue submitted {queue['submitted']}, shed {queue['shed']}, "
        f"popped {queue['popped']}; sessions completed "
        f"{summary['sessions']['completed']}, failed "
        f"{summary['sessions']['failed']}"
    )
    print(_latency_line("session", summary["latency"]["session"]))
    if args.snapshot is not None:
        print(f"wrote {args.snapshot}")
    return 0


def _cmd_survey(args):
    from repro.traffic import weekly_occupancy_samples

    print(f"{'carrier':16s} {'median':>8s} {'p90':>8s}")
    for tech in ("lte", "wifi", "lora"):
        samples = weekly_occupancy_samples(tech, args.venue, rng=args.seed)
        print(
            f"{tech:16s} {np.median(samples):8.3f} "
            f"{np.percentile(samples, 90):8.3f}"
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="LScatter reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one end-to-end simulation")
    simulate.add_argument("--bandwidth", type=float, default=5.0)
    simulate.add_argument("--venue", default="smart_home")
    simulate.add_argument("--enb-to-tag", type=float, default=3.0)
    simulate.add_argument("--tag-to-ue", type=float, default=5.0)
    simulate.add_argument("--tx-power", type=float, default=10.0)
    simulate.add_argument("--frames", type=int, default=2)
    simulate.add_argument("--payload", type=int, default=50_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--circuit-sync", action="store_true")
    simulate.add_argument("--decoded-reference", action="store_true")
    simulate.add_argument(
        "--substrate",
        default="chip",
        help="ambient-substrate mode (chip, crs-ook, crs-fsk, coded-pilot, "
        "srs-uplink; default chip)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    experiment = sub.add_parser("experiment", help="regenerate a table/figure")
    experiment.add_argument("id", nargs="?", help="experiment id (omit to list)")
    experiment.add_argument("--list", action="store_true", help="list experiments")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--substrate",
        default=None,
        help="ambient-substrate filter for substrate-aware experiments "
        "(currently subgrid)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    trace = sub.add_parser(
        "trace", help="run with stage tracing and write a Chrome trace JSON"
    )
    trace.add_argument(
        "id", nargs="?", help="experiment id to trace (optional; probe always runs)"
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--output",
        default="TRACE_PR4.json",
        help="Chrome trace-event JSON path (chrome://tracing / Perfetto)",
    )
    trace.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the built-in end-to-end pipeline probe run",
    )
    trace.add_argument(
        "--force",
        action="store_true",
        help="overwrite --output if it already exists",
    )
    trace.set_defaults(func=_cmd_trace)

    fleet = sub.add_parser("fleet", help="multi-tag network simulation")
    fleet.add_argument("--tags", "-n", type=int, default=4, help="fleet size")
    fleet.add_argument(
        "--scheme",
        default="tdma",
        choices=("tdma", "aloha", "priority"),
        help="MAC scheme assigning half-frames to tags",
    )
    fleet.add_argument("--bandwidth", type=float, default=1.4)
    fleet.add_argument("--venue", default="smart_home")
    fleet.add_argument(
        "--frames", type=int, default=4, help="LTE frames in the shared capture"
    )
    fleet.add_argument("--payload", type=int, default=20_000)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the per-tag stages (results are "
        "bit-identical for any value)",
    )
    fleet.add_argument(
        "--trace",
        action="store_true",
        help="collect per-tag span trees + counters and write a trace JSON",
    )
    fleet.add_argument(
        "--trace-output",
        default="TRACE_PR4.json",
        help="Chrome trace path for --trace (one thread track per tag)",
    )
    fleet.add_argument(
        "--force",
        action="store_true",
        help="overwrite --trace-output if it already exists",
    )
    fleet.add_argument(
        "--batch-tags",
        action="store_true",
        help="stack all tags into one batched cross-tag demod pass "
        "(bit-identical to the per-tag path, runs in the parent)",
    )
    fleet.add_argument(
        "--substrate",
        default="chip",
        help="ambient-substrate mode for the whole fleet (default chip)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    network = sub.add_parser(
        "network", help="city-scale multi-cell network simulation"
    )
    network.add_argument(
        "--layout",
        default="hex",
        choices=("hex", "grid"),
        help="cell layout: hexagonal cluster or rectangular grid",
    )
    network.add_argument(
        "--rings", type=int, default=1, help="hex rings (1 = 7 cells)"
    )
    network.add_argument("--rows", type=int, default=2, help="grid rows")
    network.add_argument("--cols", type=int, default=2, help="grid columns")
    network.add_argument(
        "--isd", type=float, default=150.0, help="inter-site distance (ft)"
    )
    network.add_argument(
        "--tags", "-n", type=int, default=8, help="tags scattered over the map"
    )
    network.add_argument(
        "--scheme",
        default="tdma",
        choices=("tdma", "aloha", "priority"),
        help="per-cell MAC scheme",
    )
    network.add_argument(
        "--frames", type=int, default=2, help="LTE frames per cell capture"
    )
    network.add_argument(
        "--attach",
        default="analytic",
        choices=("analytic", "search"),
        help="attach pipeline: analytic SNR ranking, or IQ cell search "
        "over the superposed neighbourhood",
    )
    network.add_argument("--payload", type=int, default=20_000)
    network.add_argument("--seed", type=int, default=0)
    network.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the per-tag stages (results are "
        "bit-identical for any value)",
    )
    network.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: 7-cell hex, 1 frame, <= 4 tags",
    )
    network.add_argument(
        "--output",
        default=None,
        help="summary JSON path (default NETWORK_PR6.json, or "
        "artifacts/network_smoke.json in smoke mode)",
    )
    network.add_argument(
        "--force",
        action="store_true",
        help="overwrite --output if it already exists",
    )
    network.set_defaults(func=_cmd_network)

    chaos = sub.add_parser(
        "chaos", help="fault-injection sweeps and degradation curves"
    )
    chaos.add_argument(
        "--output",
        default=None,
        help="report JSON path (default CHAOS_PR3.json, or "
        "artifacts/chaos_smoke.json in smoke mode)",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: short capture, 3 severity points",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--max-severity",
        type=float,
        default=1.0,
        help="top of the severity sweep, in [0, 1]",
    )
    chaos.add_argument(
        "--kinds",
        default=None,
        help="comma-separated fault kinds (default: all); "
        "dropout, jammer, impulse, clipping, drift",
    )
    chaos.add_argument(
        "--no-fleet",
        action="store_true",
        help="skip the fleet-resilience experiment (fastest)",
    )
    chaos.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing report file",
    )
    chaos.set_defaults(func=_cmd_chaos)

    stress = sub.add_parser(
        "stress", help="adversarial-scenario sweeps and degradation curves"
    )
    stress.add_argument(
        "--output",
        default=None,
        help="report JSON path (default STRESS_PR8.json, or "
        "artifacts/stress_smoke.json in smoke mode)",
    )
    stress.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: short capture, 3 intensity points",
    )
    stress.add_argument("--seed", type=int, default=0)
    stress.add_argument(
        "--max-intensity",
        type=float,
        default=1.0,
        help="top of the intensity sweep, in [0, 1]",
    )
    stress.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: all); "
        "bursty-pdsch, signalling-storm, sweep-jammer, reactive-jammer, "
        "pss-jammer, tag-mob",
    )
    stress.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing report file",
    )
    stress.set_defaults(func=_cmd_stress)

    substrates = sub.add_parser(
        "substrates",
        help="cross-substrate comparison suite writing SUBSTRATES_PR10.json",
    )
    substrates.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: link + fault-noop checks only (no ladder)",
    )
    substrates.add_argument(
        "--substrate",
        default=None,
        help="run only this mode (default: every registered mode)",
    )
    substrates.add_argument("--seed", type=int, default=0)
    substrates.add_argument(
        "--output",
        default=None,
        help="report JSON path (default SUBSTRATES_PR10.json, or "
        "artifacts/substrates_smoke.json in smoke mode)",
    )
    substrates.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing report file",
    )
    substrates.set_defaults(func=_cmd_substrates)

    campaign = sub.add_parser(
        "campaign",
        help="sharded, resumable execution of a registry experiment",
    )
    campaign.add_argument(
        "id", nargs="?", help="experiment id (omit with --list)"
    )
    campaign.add_argument(
        "--list",
        action="store_true",
        help="list campaign-capable experiments and exit",
    )
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: reduced parameter grid",
    )
    campaign.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the grid round-robin into N slices",
    )
    campaign.add_argument(
        "--shard-index",
        type=int,
        default=None,
        help="run only slice I of --shards (CI matrix jobs); omit to run "
        "every slice in this process",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip shards whose run-dir checkpoint verifies (CRC + identity)",
    )
    campaign.add_argument(
        "--run-dir",
        default=None,
        help="checkpoint directory (default artifacts/campaign/<id>)",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for shard execution",
    )
    campaign.set_defaults(func=_cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help="always-on fleet service (with --soak: checkpointed soak "
        "harness writing SOAK_PR9.json)",
    )
    serve.add_argument(
        "--soak",
        action="store_true",
        help="run the deterministic soak harness: checkpointed cohorts, "
        "service-vs-batch bit-identity gate, SOAK report",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: 3 cohorts (12 sessions)",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=None,
        help="synthetic tag-sessions to drive (default 96, or 12 in smoke "
        "mode)",
    )
    serve.add_argument(
        "--cohort-tags",
        type=int,
        default=4,
        help="sessions per cohort (one seeded deployment each)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="service worker threads (results are bit-identical for any "
        "value)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="job-queue depth; submissions beyond it are shed",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--scheme",
        default="tdma",
        choices=("tdma", "aloha", "priority"),
        help="MAC scheme for each cohort's deployment",
    )
    serve.add_argument("--bandwidth", type=float, default=1.4)
    serve.add_argument(
        "--frames", type=int, default=2, help="LTE frames per cohort capture"
    )
    serve.add_argument("--payload", type=int, default=2_000)
    serve.add_argument(
        "--output",
        default=None,
        help="soak report JSON path (default SOAK_PR9.json, or "
        "artifacts/soak_smoke.json in smoke mode)",
    )
    serve.add_argument(
        "--run-dir",
        default=None,
        help="soak checkpoint directory (default artifacts/soak[-smoke])",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="reuse verified cohort checkpoints in --run-dir (a killed "
        "soak continues where it stopped)",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        help="live telemetry snapshot path, atomically rewritten every "
        "--snapshot-every sessions (default: no snapshot file)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=8,
        help="completed sessions between live snapshot exports",
    )
    serve.add_argument(
        "--force",
        action="store_true",
        help="overwrite existing --output / --snapshot files",
    )
    serve.set_defaults(func=_cmd_serve)

    survey = sub.add_parser("survey", help="ambient-traffic survey for a venue")
    survey.add_argument("--venue", default="home")
    survey.add_argument("--seed", type=int, default=0)
    survey.set_defaults(func=_cmd_survey)

    report = sub.add_parser("report", help="write the full evaluation report")
    report.add_argument("--output", default="report.md")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--heavy", action="store_true", help="include the IQ-level experiments"
    )
    report.set_defaults(func=_cmd_report)
    return parser


def _cmd_report(args):
    from repro.analysis import write_report

    path = write_report(args.output, seed=args.seed, include_heavy=args.heavy)
    print(f"wrote {path}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
