"""The receiver demodulates only the half-frames a tag owns.

``run_frontend`` cuts the UE's half-frame grid to the MAC grant, so the
serial and batched fleet paths never demodulate another tag's airtime.
The oracle test runs the kernel over the full grid and checks that the
link accounting cannot tell the difference while the timing error stays
inside the exactness bound of DESIGN §16 (183 samples at 1.4 MHz).
"""

import numpy as np
import pytest

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.core import LScatterSystem, SystemConfig
from repro.fleet import Deployment, FleetRunner


def _demodulated(monkeypatch, **runner_kwargs):
    """``(owned, demod results)`` of each tag of a 3-tag TDMA ring."""
    results = []
    demodulate_many = BackscatterDemodulator.demodulate_many

    def spy(self, *args):
        out = demodulate_many(self, *args)
        results.extend(out)
        return out

    monkeypatch.setattr(BackscatterDemodulator, "demodulate_many", spy)
    deployment = Deployment.ring(3, bandwidth_mhz=1.4, n_frames=2)
    with FleetRunner(deployment, scheme="tdma", seed=0, **runner_kwargs) as runner:
        owned = [task.owned for task in runner.plan(payload_length=2000).tasks]
        runner.run(payload_length=2000)
    return owned, results


@pytest.mark.parametrize(
    "runner_kwargs", [{}, {"batch_tags": True}], ids=["serial", "batched"]
)
def test_fleet_demodulates_only_owned_half_frames(monkeypatch, runner_kwargs):
    owned, results = _demodulated(monkeypatch, **runner_kwargs)
    # tag00 owns two half-frames that are not adjacent.
    assert owned == [(0, 3), (1,), (2,)]
    assert len(results) == len(owned)
    half = SystemConfig(bandwidth_mhz=1.4).params.samples_per_frame // 2
    for grant, result in zip(owned, results):
        starts = {packet.half_frame_start for packet in result.packets}
        assert starts == {h * half for h in grant}


@pytest.mark.parametrize("error", [-150, 0, 150])
@pytest.mark.parametrize("owned", [(1,), (0, 3)])
def test_owned_grid_measures_like_full_grid(error, owned):
    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=2,
        reference_mode="genie",
        sync_error_samples=error,
    )
    system = LScatterSystem(config, rng=3)
    front = system.run_frontend(payload_length=4000, owned_half_frames=owned)
    half = config.params.samples_per_frame // 2
    full = np.arange(0, len(front.shifted_rx) - half + 1, half)
    assert front.half_starts.tolist() == [h * half for h in owned]

    def measure(grid):
        demod = system.demodulator.demodulate(front.shifted_rx, front.reference, grid)
        return demod, system.substrate.measure(
            front.schedule, demod, config.params.fft_size // 2
        )

    owned_demod, owned_measure = measure(front.half_starts)
    full_demod, full_measure = measure(full)
    assert full_demod.n_data_windows > owned_demod.n_data_windows
    assert owned_measure == full_measure
    report = system.finalize_run(front, owned_demod)
    assert (report.n_bits, report.n_errors, report.n_windows) == (
        full_measure.n_bits,
        full_measure.n_errors,
        full_measure.n_windows,
    )
