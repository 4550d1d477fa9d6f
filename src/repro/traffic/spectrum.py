"""Band captures and spectrograms — the paper's Fig. 4a/4b, in software.

Synthesises what a spectrum analyzer sees on a WiFi channel (bursty
packets with inter-burst silence, interleaved ZigBee-like narrowband
interferers) versus an LTE band (continuous OFDM with the PSS flashing
every 5 ms), and computes the STFT spectrogram used to visualise them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lte import LteTransmitter
from repro.traffic.models import OnOffTraffic
from repro.utils.rng import make_rng
from repro.wifi import WifiTransmitter

#: Every band capture spans 20 ms: four PSS periods of the LTE band.
CAPTURE_SECONDS = 20e-3

#: Fraction of the WiFi channel's airtime its packets take.
WIFI_OCCUPANCY = 0.35

#: The LTE band's carrier (MHz).
LTE_BANDWIDTH_MHZ = 5.0

#: Spectrogram frame length (samples).
FFT_SIZE = 256


@dataclass
class BandCapture:
    """IQ of one observed band plus its sample rate."""

    samples: np.ndarray
    sample_rate_hz: float
    label: str

    @property
    def duration_seconds(self):
        return len(self.samples) / self.sample_rate_hz


def wifi_band_capture(rng=None):
    """A WiFi channel: packets arriving per an on/off process, plus an
    occasional ZigBee-like narrowband burst (the heterogeneity of §2.2)."""
    rng = make_rng(rng)
    fs = 20e6
    n = int(CAPTURE_SECONDS * fs)
    band = np.zeros(n, dtype=complex)
    traffic = OnOffTraffic(occupancy=WIFI_OCCUPANCY, mean_busy_s=1.5e-3, rng=rng)
    tx = WifiTransmitter(12.0, rng=rng)
    for interval in traffic.intervals(CAPTURE_SECONDS):
        start = int(interval.start * fs)
        budget = int(interval.duration * fs)
        while budget > 400:
            packet = tx.transmit(psdu_bytes=int(rng.integers(40, 300)))
            take = min(len(packet.samples), budget)
            band[start : start + take] += packet.samples[:take]
            start += take + 200
            budget -= take + 200
    # A ZigBee-ish 2 MHz interferer for ~15 % of the time.
    zigbee = OnOffTraffic(occupancy=0.15, mean_busy_s=3e-3, rng=rng)
    t = np.arange(n) / fs
    tone = np.exp(1j * 2 * np.pi * 5e6 * t)
    chip = np.sign(rng.standard_normal(n))  # crude DSSS spreading
    mask = zigbee.presence_mask(CAPTURE_SECONDS, 1.0 / fs)[:n]
    band += 0.7 * tone * chip * mask
    return BandCapture(samples=band, sample_rate_hz=fs, label="wifi-2.4GHz")


def lte_band_capture(rng=None):
    """An LTE downlink band: continuous frames, PSS every 5 ms."""
    rng = make_rng(rng)
    n_frames = int(np.ceil(CAPTURE_SECONDS / 10e-3))
    capture = LteTransmitter(LTE_BANDWIDTH_MHZ, rng=rng).transmit(n_frames)
    fs = capture.params.sample_rate_hz
    n = int(CAPTURE_SECONDS * fs)
    return BandCapture(
        samples=capture.samples[:n], sample_rate_hz=fs, label="lte-downlink"
    )


def spectrogram(capture):
    """Magnitude STFT: returns (times_s, freqs_hz, magnitude dB array).

    Frames of :data:`FFT_SIZE` samples, Hann-windowed, at half-frame hops.
    """
    fft_size = FFT_SIZE
    hop = fft_size // 2
    samples = np.asarray(capture.samples, dtype=complex)
    n_frames = max((len(samples) - fft_size) // hop + 1, 0)
    window = np.hanning(fft_size)
    rows = np.empty((n_frames, fft_size))
    for i in range(n_frames):
        chunk = samples[i * hop : i * hop + fft_size] * window
        spectrum = np.fft.fftshift(np.fft.fft(chunk))
        rows[i] = 20 * np.log10(np.abs(spectrum) + 1e-12)
    times = (np.arange(n_frames) * hop + fft_size / 2) / capture.sample_rate_hz
    freqs = np.fft.fftshift(np.fft.fftfreq(fft_size, 1.0 / capture.sample_rate_hz))
    return times, freqs, rows


def occupancy_from_spectrogram(magnitude_db):
    """Fraction of STFT frames carrying signal (the measured traffic rate).

    A frame counts as occupied when its peak power is within 20 dB of the
    capture's strongest frame — robust both for bursty bands (silence sits
    hundreds of dB down) and for continuous ones (everything qualifies).
    """
    magnitude_db = np.asarray(magnitude_db)
    frame_power = magnitude_db.max(axis=1)
    return float(np.mean(frame_power > frame_power.max() - 20.0))
