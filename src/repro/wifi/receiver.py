"""802.11a/g packet receiver: detection, channel estimation, decoding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from repro.lte.modulation import demodulate_llr
from repro.wifi import coding
from repro.wifi.ofdm import ltf_reference, ltf_symbol, split_symbol, used_bins_values
from repro.wifi.params import (
    DATA_BINS,
    FFT_SIZE,
    GI_SAMPLES,
    PILOT_BINS,
    WIFI_RATES,
    pilot_polarity,
)
from repro.wifi.transmitter import SERVICE_BITS, TAIL_BITS

#: Preamble length in samples (STF + LTF).
PREAMBLE_SAMPLES = 320

#: Normalised LTF correlation a packet must reach to be detected.
DETECT_THRESHOLD = 0.6


@dataclass
class WifiDecodeResult:
    """Outcome of decoding one packet."""

    detected: bool
    psdu_bits: np.ndarray = None
    rate_mbps: float = float("nan")
    start: int = -1
    bit_errors_vs: int = -1

    def errors_against(self, reference_bits):
        """Count PSDU bit errors against ground truth."""
        if self.psdu_bits is None:
            return len(reference_bits)
        reference_bits = np.asarray(reference_bits, dtype=np.int8)
        if len(self.psdu_bits) != len(reference_bits):
            return len(reference_bits)
        return int(np.sum(self.psdu_bits != reference_bits))


def detect_packet(samples):
    """Find the LTF by normalised correlation; returns the LTF1 start or -1."""
    samples = np.asarray(samples, dtype=complex)
    template = ltf_symbol()
    n = len(template)
    if len(samples) < n:
        return -1
    corr = fftconvolve(samples, np.conj(template[::-1]), mode="valid")
    energy = fftconvolve(np.abs(samples) ** 2, np.ones(n), mode="valid").real
    floor = max(1e-30, 0.05 * float(np.median(energy)))
    template_energy = float(np.sum(np.abs(template) ** 2))
    metric = np.abs(corr) / np.sqrt(np.maximum(energy, floor) * template_energy)
    peak = int(np.argmax(metric))
    if metric[peak] < DETECT_THRESHOLD:
        return -1
    # The LTF repeats: prefer the first of the two correlation peaks.
    if peak >= n and metric[peak - n] > 0.9 * metric[peak]:
        peak -= n
    return peak


class WifiReceiver:
    """Decode 802.11a/g packets whose rate is known or read from SIGNAL."""

    def __init__(self, rate_mbps=None):
        self.rate = WIFI_RATES[rate_mbps] if rate_mbps is not None else None

    def _channel_from_ltf(self, samples, ltf1_start):
        l1 = used_bins_values(samples[ltf1_start : ltf1_start + FFT_SIZE])
        l2 = used_bins_values(
            samples[ltf1_start + FFT_SIZE : ltf1_start + 2 * FFT_SIZE]
        )
        reference = ltf_reference()
        return 0.5 * (l1 + l2) * np.conj(reference) / np.abs(reference) ** 2

    def _decode_signal(self, samples, start, channel_data):
        sym = samples[start : start + FFT_SIZE + GI_SAMPLES]
        data, _pilots = split_symbol(sym)
        equalized = data * np.conj(channel_data) / (np.abs(channel_data) ** 2 + 1e-12)
        llrs = demodulate_llr(equalized, "bpsk", 0.1)
        deinterleaved = coding.deinterleave(llrs, 48, 1)
        bits = coding.viterbi_half(deinterleaved, 24)
        rate_code = int("".join(str(b) for b in bits[:4]), 2)
        length = 0
        for i in range(12):
            length |= int(bits[5 + i]) << i
        parity_ok = int(np.sum(bits[:17])) % 2 == int(bits[17])
        rate = next(
            (r for r in WIFI_RATES.values() if r.signal_bits == rate_code), None
        )
        return rate, length, parity_ok

    def decode(self, samples, ltf1_start=None):
        """Decode the first packet found in ``samples``."""
        samples = np.asarray(samples, dtype=complex)
        if ltf1_start is None:
            ltf1_start = detect_packet(samples)
            if ltf1_start < 0:
                return WifiDecodeResult(detected=False)
            # detect_packet returns the useful-LTF start; skip GI2 handling.
        channel = self._channel_from_ltf(samples, ltf1_start)
        used_bins = np.array([k for k in range(-26, 27) if k != 0])
        data_mask = np.isin(used_bins, DATA_BINS)
        channel_data = channel[data_mask]

        signal_start = ltf1_start + 2 * FFT_SIZE
        rate, length, parity_ok = self._decode_signal(
            samples, signal_start, channel_data
        )
        if self.rate is not None:
            rate = self.rate
        if rate is None or not parity_ok and self.rate is None:
            return WifiDecodeResult(detected=False, start=int(ltf1_start))

        dbps = rate.data_bits_per_symbol
        payload_bits = SERVICE_BITS + 8 * length + TAIL_BITS
        n_symbols = int(np.ceil(payload_bits / dbps))

        llr_blocks = []
        offset = signal_start + FFT_SIZE + GI_SAMPLES
        polarity = pilot_polarity(n_symbols + 1)
        for sym in range(n_symbols):
            chunk = samples[offset : offset + FFT_SIZE + GI_SAMPLES]
            if len(chunk) < FFT_SIZE + GI_SAMPLES:
                return WifiDecodeResult(detected=False, start=int(ltf1_start))
            data, pilots = split_symbol(chunk)
            eq = data * np.conj(channel_data) / (np.abs(channel_data) ** 2 + 1e-12)
            # Residual common phase from the pilots.
            pilot_ref = polarity[sym + 1] * np.array([1, 1, 1, -1], dtype=float)
            pilot_channel = channel[np.isin(used_bins, PILOT_BINS)]
            pilot_eq = pilots * np.conj(pilot_channel) / (
                np.abs(pilot_channel) ** 2 + 1e-12
            )
            phase = np.angle(np.sum(pilot_eq * pilot_ref))
            eq = eq * np.exp(-1j * phase)
            llr_blocks.append(demodulate_llr(eq, rate.modulation, 0.1))
            offset += FFT_SIZE + GI_SAMPLES

        llrs = np.concatenate(llr_blocks)
        deinterleaved = coding.deinterleave(
            llrs, rate.coded_bits_per_symbol, rate.bits_per_subcarrier
        )
        coded_length = 2 * n_symbols * dbps
        soft = coding.depuncture(
            deinterleaved, rate.code_rate_num, rate.code_rate_den, coded_length
        )
        decoded = coding.viterbi_half(soft, n_symbols * dbps)
        descrambled = coding.scramble(decoded)  # self-inverse
        psdu = descrambled[SERVICE_BITS : SERVICE_BITS + 8 * length]
        return WifiDecodeResult(
            detected=True,
            psdu_bits=psdu.astype(np.int8),
            rate_mbps=rate.rate_mbps,
            start=int(ltf1_start),
        )
