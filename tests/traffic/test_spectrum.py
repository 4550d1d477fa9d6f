"""Band-capture / spectrogram tests (Fig. 4a/4b machinery)."""

import numpy as np
import pytest

from repro.traffic import spectrum
from repro.traffic.spectrum import (
    lte_band_capture,
    occupancy_from_spectrogram,
    spectrogram,
    wifi_band_capture,
)


@pytest.fixture(scope="module")
def wifi():
    return wifi_band_capture(rng=1)


@pytest.fixture(scope="module")
def lte():
    return lte_band_capture(rng=1)


def test_capture_durations(wifi, lte):
    assert spectrum.CAPTURE_SECONDS == 20e-3
    assert wifi.duration_seconds == pytest.approx(20e-3, rel=1e-6)
    assert lte.duration_seconds == pytest.approx(20e-3, rel=1e-6)


def test_wifi_band_has_silence(wifi):
    power = np.abs(wifi.samples) ** 2
    # A meaningful fraction of samples are silent between bursts.
    assert np.mean(power < 1e-9) > 0.2


def test_lte_band_never_silent(lte):
    # Per-millisecond energy never drops to zero.
    fs = lte.sample_rate_hz
    chunk = int(1e-3 * fs)
    n = len(lte.samples) // chunk
    energies = [
        np.mean(np.abs(lte.samples[i * chunk : (i + 1) * chunk]) ** 2)
        for i in range(n)
    ]
    assert min(energies) > 0.1 * max(energies)


def test_spectrogram_shapes(wifi, monkeypatch):
    monkeypatch.setattr(spectrum, "FFT_SIZE", 128)
    times, freqs, mag = spectrogram(wifi)
    assert mag.shape == (len(times), 128)
    assert len(freqs) == 128
    assert times[0] < times[-1] <= wifi.duration_seconds


def test_measured_occupancy_ordering(wifi, lte):
    _, _, wifi_mag = spectrogram(wifi)
    _, _, lte_mag = spectrogram(lte)
    wifi_occ = occupancy_from_spectrogram(wifi_mag)
    lte_occ = occupancy_from_spectrogram(lte_mag)
    assert lte_occ == 1.0
    assert 0.15 < wifi_occ < 0.75
    assert lte_occ > wifi_occ


def test_occupancy_tracks_traffic_parameter(monkeypatch):
    monkeypatch.setattr(spectrum, "WIFI_OCCUPANCY", 0.1)
    light = wifi_band_capture(rng=2)
    monkeypatch.setattr(spectrum, "WIFI_OCCUPANCY", 0.6)
    heavy = wifi_band_capture(rng=2)
    _, _, light_mag = spectrogram(light)
    _, _, heavy_mag = spectrogram(heavy)
    assert occupancy_from_spectrogram(heavy_mag) > occupancy_from_spectrogram(
        light_mag
    )
