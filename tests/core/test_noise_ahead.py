"""Noise drawn ahead on a worker thread: exact, joined, and off the ledger.

``LScatterSystem.run_frontend`` queues each session's ``(2, n)`` noise
draws on a single-worker executor (DESIGN §16).  These tests pin three
things: the samples are the ones inline draws made (goldens recorded
while every draw was still made inline), no worker outlives the call,
and the worker runs none of the entry points a timing ledger wraps.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

import repro.core.system as system_module
from repro.channel.link import BackscatterLink, DirectLink
from repro.core import LScatterSystem, SystemConfig
from repro.tag.modulator import ChipModulator
from repro.tag.sync_circuit import SyncCircuit

#: The draw schedules no other golden covers, recorded with every draw
#: made inline (1.4 MHz, multipath and noise, ``n_frames=2``, ``rng=5``,
#: 2000 payload bits): the report fields (n_bits, n_errors, n_windows,
#: n_lost, n_erased, sync_error_us), then the sha256 of
#: ``artifacts.shifted_rx`` and ``artifacts.direct_rx``.
GOLDEN_SCHEDULES = {
    # Three eager draws; the tag's draw is made but never read.
    "genie-cfo-model": (
        dict(reference_mode="genie", sync_mode="model", ue_cfo_ppm=0.5),
        (16704, 9, 232, 0, 0, -0.5208333333333334),
        "26f0f2013368940d7abcd24d6f862a313613199af3c6963b5803a8af9a7e2d8a",
        "536c84bf2297959c8ddae4f376bc4e201878ec9d1e8352907f6098fc4dd27ff1",
    ),
    # A pin beats circuit sync: the tag's draw is unread, and the
    # deferred direct band draws inline after the worker has finished.
    "genie-pinned": (
        dict(reference_mode="genie", sync_mode="circuit", sync_error_samples=3),
        (12528, 9, 174, 0, 0, 1.5625),
        "f1afe8aee0378b0fe3f3d2207dec910514feab40467215953a90c338f83f9b38",
        "abceabd65c78da95f059c05006a4cb8ccd5e7ca142d9553d49aa4854e45dfc9f",
    ),
    # Three eager draws feeding the LTE decode; the tag's draw is unread.
    "decoded-model": (
        dict(reference_mode="decoded", sync_mode="model"),
        (16704, 9, 232, 0, 0, -0.5208333333333334),
        "1cfdd7086070ba295330a4bdb16f4c4e86dbf03058550aea92d79083f2e78116",
        "abceabd65c78da95f059c05006a4cb8ccd5e7ca142d9553d49aa4854e45dfc9f",
    ),
}


def _sha256(samples):
    return hashlib.sha256(np.ascontiguousarray(samples).tobytes()).hexdigest()


def _system(seed=5, **overrides):
    config = SystemConfig(bandwidth_mhz=1.4, n_frames=2, **overrides)
    return LScatterSystem(config, rng=seed)


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEDULES))
def test_noise_schedule_golden_unchanged(name):
    overrides, fields, shifted_sha, direct_sha = GOLDEN_SCHEDULES[name]
    report = _system(**overrides).run(payload_length=2000, artifacts=True)
    artifacts = report.extras["artifacts"]
    assert (
        report.n_bits,
        report.n_errors,
        report.n_windows,
        report.n_lost_windows,
        report.n_erased_windows,
        report.sync_error_us,
    ) == fields
    assert _sha256(artifacts.shifted_rx) == shifted_sha
    assert _sha256(artifacts.direct_rx) == direct_sha


def _noise_workers():
    return [
        t for t in threading.enumerate() if t.name.startswith("noise-draws")
    ]


def _watch_noise_workers(monkeypatch):
    """Record the live noise workers at every noise add of a session."""
    seen = []
    add = system_module.add_thermal_noise

    def watched(*args, **kwargs):
        seen.append(len(_noise_workers()))
        return add(*args, **kwargs)

    monkeypatch.setattr(system_module, "add_thermal_noise", watched)
    return seen


@pytest.mark.parametrize(
    "overrides",
    [
        dict(reference_mode="genie", sync_mode="model"),
        dict(reference_mode="decoded", sync_mode="circuit"),
        dict(reference_mode="genie", sync_mode="model", ue_cfo_ppm=0.5),
    ],
)
def test_no_worker_outlives_run_frontend(monkeypatch, overrides):
    seen = _watch_noise_workers(monkeypatch)
    before = set(threading.enumerate())
    front = _system(**overrides).run_frontend(payload_length=2000)
    # The worker was alive while the session added its noise ...
    assert seen and all(n == 1 for n in seen)
    # ... and is joined by the time run_frontend returns.
    assert set(threading.enumerate()) == before
    assert _noise_workers() == []
    # A deferred direct band draws on the caller's thread, after the join.
    assert front.direct_rx is not None
    assert _noise_workers() == []


def test_no_worker_outlives_a_raising_run_frontend(monkeypatch):
    def broken(self, ambient_at_tag, chips):
        raise RuntimeError("injected reflect failure")

    monkeypatch.setattr(ChipModulator, "reflect", broken)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="injected reflect failure"):
        _system(reference_mode="decoded").run_frontend(payload_length=2000)
    assert set(threading.enumerate()) == before
    assert _noise_workers() == []


def test_noiseless_run_starts_no_worker(monkeypatch):
    started = []
    monkeypatch.setattr(
        system_module, "NoiseDraws", lambda *args: started.append(args)
    )
    _system(add_noise=False, reference_mode="decoded").run(payload_length=2000)
    assert started == []


def test_concurrent_sessions_match_serial_runs():
    """Sessions on more threads than cores, each with its own worker.

    A short switch interval makes the threads interleave often; every
    session must still match its serial run bit for bit.
    """
    seeds = range(6)

    def session(seed):
        report = _system(seed=seed, reference_mode="genie").run(
            payload_length=2000, artifacts=True
        )
        shifted = report.extras["artifacts"].shifted_rx
        return report.n_bits, report.n_errors, _sha256(shifted)

    serial = {seed: session(seed) for seed in seeds}
    threaded = {}

    def work(seed):
        threaded[seed] = session(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == serial
    assert _noise_workers() == []


#: Every entry point a session reaches that a per-layer timing ledger
#: wraps by name.  A ledger keeps one span stack, so each must run on
#: the thread that called ``run``; the worker calls only
#: ``Generator.standard_normal``.
LEDGER_ENTRY_POINTS = (
    (system_module, "add_thermal_noise"),
    (BackscatterLink, "apply_to_tag"),
    (BackscatterLink, "apply_from_tag"),
    (DirectLink, "apply"),
    (SyncCircuit, "process"),
    (ChipModulator, "reflect"),
)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(reference_mode="genie", sync_mode="model"),
        dict(reference_mode="genie", sync_mode="circuit"),
        dict(reference_mode="genie", sync_error_samples=3, ue_cfo_ppm=0.5),
        dict(reference_mode="decoded", sync_mode="circuit"),
    ],
)
def test_ledger_entry_points_run_on_the_calling_thread(monkeypatch, overrides):
    threads = {}

    def on_caller(owner, name):
        fn = getattr(owner, name)

        def recorded(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    for owner, name in LEDGER_ENTRY_POINTS:
        on_caller(owner, name)
    report = _system(**overrides).run(payload_length=2000, artifacts=True)
    report.extras["artifacts"].direct_rx  # a deferred band is built here
    expected = {"add_thermal_noise", "apply_to_tag", "apply_from_tag", "apply", "reflect"}
    if overrides.get("sync_mode") == "circuit":
        expected.add("process")
    assert set(threads) == expected
    assert all(idents == {threading.get_ident()} for idents in threads.values())
