"""Soak harness tests: determinism, checkpoint resume, kill drill.

The soak contract: identical spec → bit-identical ``aggregates`` section,
whatever the workers/queue-depth/interruption history.  The drill tests
kill a soak (an in-process raise from the ``after_cohort`` hook, and a
real ``SIGKILL`` of a ``repro serve --soak`` subprocess), resume it, and
compare the resumed report's aggregates against an uninterrupted
reference with plain ``==``.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import SoakError, build_soak_shards, default_spec, run_soak

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spec(sessions=4, cohort_tags=2, seed=5):
    return default_spec(
        smoke=True,
        sessions=sessions,
        cohort_tags=cohort_tags,
        seed=seed,
        payload_length=1000,
    )


def _soak(tmp_path, name, spec, **kwargs):
    return run_soak(
        output=str(tmp_path / f"{name}.json"),
        run_dir=str(tmp_path / name),
        spec=spec,
        **kwargs,
    )


# -- grid construction -----------------------------------------------------------


def test_build_soak_shards_deterministic_with_remainder():
    spec = _spec(sessions=7, cohort_tags=3)
    a = build_soak_shards(spec)
    b = build_soak_shards(spec)
    assert [(s.shard_id, s.seed, s.params) for s in a] == [
        (s.shard_id, s.seed, s.params) for s in b
    ]
    # 3 + 3 + 1: the last cohort absorbs the remainder.
    assert [s.params["n_tags"] for s in a] == [3, 3, 1]
    assert [s.shard_id for s in a] == [
        "soak-smoke-0000", "soak-smoke-0001", "soak-smoke-0002"
    ]
    # Distinct, spawn-derived cohort seeds.
    assert len({s.seed for s in a}) == 3


def test_default_spec_validation():
    with pytest.raises(ValueError, match="sessions"):
        default_spec(sessions=0)
    with pytest.raises(ValueError, match="cohort_tags"):
        default_spec(cohort_tags=0)
    assert default_spec(smoke=True)["sessions"] == 12
    assert default_spec()["sessions"] == 96


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"sessions": 5.9}, "^sessions must be a whole number >= 1"),
        ({"sessions": "7"}, "^sessions must be a whole number >= 1"),
        ({"cohort_tags": 2.5}, "^cohort_tags must be a whole number >= 1"),
    ],
)
def test_default_spec_rejects_bad_counts_naming_the_field(kwargs, message):
    with pytest.raises(ValueError, match=message):
        default_spec(**kwargs)


# -- determinism + equivalence gate ---------------------------------------------


def test_soak_aggregates_deterministic_across_service_shapes(tmp_path):
    spec = _spec()
    first = _soak(tmp_path, "a", spec, workers=1, queue_depth=2)
    second = _soak(tmp_path, "b", spec, workers=3, queue_depth=8)
    assert first["aggregates"] == second["aggregates"]
    assert first["passed"] and second["passed"]
    assert first["equivalence"]["passed"]
    assert first["equivalence"]["checked_cohorts"] == 1


def test_soak_report_operations_section(tmp_path):
    spec = _spec()
    report = _soak(tmp_path, "ops", spec, workers=2, queue_depth=4)
    ops = report["operations"]
    assert ops["executed_sessions"] == spec["sessions"]
    assert ops["throughput_sessions_per_second"] > 0
    assert ops["session_latency"]["count"] == spec["sessions"]
    assert ops["session_latency"]["p50_seconds"] > 0
    assert ops["session_latency"]["p99_seconds"] >= ops[
        "session_latency"
    ]["p50_seconds"]
    assert 0.0 <= ops["shed"]["rate"] <= 1.0
    assert ops["peak_rss_mb"] > 0
    # The mid-soak pool swap ran (the spec has >1 cohorts).
    assert ops["reloads"] == 1
    # Report landed on disk as valid JSON matching the return value.
    on_disk = json.loads((tmp_path / "ops.json").read_text())
    assert on_disk["aggregates"] == report["aggregates"]


# -- resume ----------------------------------------------------------------------


def test_resume_skips_checkpoints_and_leaves_bytes_untouched(tmp_path):
    spec = _spec()
    first = _soak(tmp_path, "run", spec, workers=2)
    files = sorted(glob.glob(str(tmp_path / "run" / "soak-smoke-*.json")))
    assert len(files) == len(first["aggregates"]["cohort_crc32"])
    before = {f: Path(f).read_bytes() for f in files}

    resumed = run_soak(
        output=str(tmp_path / "run2.json"),
        run_dir=str(tmp_path / "run"),
        spec=spec,
        workers=2,
        resume=True,
    )
    assert resumed["progress"]["completed_cohorts"] == 0
    assert resumed["progress"]["resumed_cohorts"] == len(files)
    assert resumed["aggregates"] == first["aggregates"]
    assert {f: Path(f).read_bytes() for f in files} == before


def test_crash_after_first_cohort_then_resume_bit_identical(tmp_path):
    spec = _spec(sessions=6, cohort_tags=2)  # 3 cohorts
    reference = _soak(tmp_path, "ref", spec, workers=2)

    class Boom(RuntimeError):
        pass

    def die_after_first(index):
        if index == 0:
            raise Boom("injected crash")

    with pytest.raises(Boom):
        run_soak(
            output=str(tmp_path / "crash.json"),
            run_dir=str(tmp_path / "crash"),
            spec=spec,
            workers=2,
            after_cohort=die_after_first,
        )
    # The crash left exactly one verified checkpoint and no report.
    assert len(glob.glob(str(tmp_path / "crash" / "soak-smoke-*.json"))) == 1
    assert not (tmp_path / "crash.json").exists()

    resumed = run_soak(
        output=str(tmp_path / "crash.json"),
        run_dir=str(tmp_path / "crash"),
        spec=spec,
        workers=2,
        resume=True,
    )
    assert resumed["progress"]["resumed_cohorts"] == 1
    assert resumed["progress"]["completed_cohorts"] == 2
    assert resumed["aggregates"] == reference["aggregates"]
    assert resumed["passed"]


def test_corrupt_checkpoint_is_rerun_not_trusted(tmp_path):
    spec = _spec()
    first = _soak(tmp_path, "run", spec, workers=1)
    victim = sorted(
        glob.glob(str(tmp_path / "run" / "soak-smoke-*.json"))
    )[0]
    Path(victim).write_text('{"payload": "truncated"')
    resumed = run_soak(
        output=str(tmp_path / "run3.json"),
        run_dir=str(tmp_path / "run"),
        spec=spec,
        workers=1,
        resume=True,
    )
    assert resumed["progress"]["completed_cohorts"] == 1
    assert resumed["aggregates"] == first["aggregates"]


def test_missing_checkpoint_after_soak_raises(tmp_path):
    spec = _spec(sessions=2, cohort_tags=2)  # single cohort

    def eat_checkpoint(index):
        for path in glob.glob(str(tmp_path / "gone" / "soak-smoke-*.json")):
            os.unlink(path)

    with pytest.raises(SoakError, match="missing"):
        run_soak(
            output=str(tmp_path / "gone.json"),
            run_dir=str(tmp_path / "gone"),
            spec=spec,
            workers=1,
            after_cohort=eat_checkpoint,
        )


# -- the real thing: SIGKILL a soak subprocess, resume it ------------------------


def test_sigkill_soak_subprocess_then_resume_bit_identical(tmp_path):
    """Phase 1: launch ``repro serve --soak`` and SIGKILL it after its
    first checkpoint lands.  Phase 2: resume in-process.  Phase 3: the
    resumed aggregates equal an uninterrupted reference run's."""
    spec = _spec(sessions=8, cohort_tags=2, seed=9)  # 4 cohorts
    run_dir = tmp_path / "killed"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--soak", "--smoke",
            "--sessions", str(spec["sessions"]),
            "--cohort-tags", str(spec["cohort_tags"]),
            "--seed", str(spec["seed"]),
            "--payload", str(spec["payload_length"]),
            "--workers", "2",
            "--output", str(tmp_path / "killed.json"),
            "--run-dir", str(run_dir),
        ],
        env=env,
        cwd=str(REPO_ROOT),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if glob.glob(str(run_dir / "soak-smoke-*.json")):
                break
            if proc.poll() is not None:
                pytest.fail(
                    f"soak subprocess exited (rc={proc.returncode}) before "
                    f"writing a checkpoint"
                )
            time.sleep(0.05)
        else:
            pytest.fail("soak subprocess never wrote a checkpoint")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    survivors = glob.glob(str(run_dir / "soak-smoke-*.json"))
    assert 1 <= len(survivors) < 4

    resumed = run_soak(
        output=str(tmp_path / "killed.json"),
        run_dir=str(run_dir),
        spec=spec,
        workers=2,
        resume=True,
    )
    reference = _soak(tmp_path, "reference", spec, workers=1, queue_depth=2)
    assert resumed["progress"]["resumed_cohorts"] >= 1
    assert resumed["aggregates"] == reference["aggregates"]
    assert resumed["passed"] and reference["passed"]
