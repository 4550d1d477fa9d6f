"""Cell search: PSS timing acquisition and SSS identity/frame detection.

This is the standard UE bring-up procedure, reproduced because two parts of
the paper depend on it:

* the "critical information survives backscatter" claim (challenge C1) is
  verified by running cell search on *hybrid* (backscattered) captures;
* the backscatter receiver needs frame timing before it can demodulate
  chips, and gets it the same way a phone does.

PSS correlation is FFT-based so 20 MHz captures stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from repro.lte.params import LteParams
from repro.lte.pss import PSS_SYMBOL_IN_SLOT, pss_sequence, pss_time_domain
from repro.lte.sss import detect_sss


#: Relative metric slack within which two PSS roots count as tied and the
#: lower root (lower cell ID) wins.  Distinct roots' cross-correlation sits
#: orders of magnitude above float noise, so the tolerance only engages for
#: genuinely indistinguishable candidates — e.g. two equal-power cells in a
#: superposed multi-cell capture.
PSS_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PssCandidate:
    """One PSS root's best correlation peak over a capture."""

    n_id_2: int
    offset: int
    metric: float


@dataclass(frozen=True)
class CellSearchResult:
    """Outcome of a cell search over a capture."""

    n_id_2: int
    n_id_1: int
    subframe: int
    frame_start: int
    pss_metric: float
    sss_metric: float

    @property
    def cell_id(self):
        return 3 * self.n_id_1 + self.n_id_2


def correlate_pss(samples, params, n_id_2):
    """Normalised PSS correlation magnitude at every candidate offset.

    Index ``i`` of the result corresponds to the PSS *useful part* starting
    at sample ``i``.
    """
    samples = np.asarray(samples, dtype=complex)
    template = pss_time_domain(n_id_2, params.fft_size)
    n = len(template)
    if len(samples) < n:
        raise ValueError("capture shorter than one OFDM symbol")
    corr = fftconvolve(samples, np.conj(template[::-1]), mode="valid")
    window_energy = fftconvolve(np.abs(samples) ** 2, np.ones(n), mode="valid").real
    template_energy = float(np.sum(np.abs(template) ** 2))
    # Windows with almost no energy (a silent capture edge) produce huge
    # spurious ratios from floating-point residue; flooring the energy at a
    # fraction of the median suppresses them without touching real peaks.
    floor = max(1e-30, 0.05 * float(np.median(window_energy)))
    denom = np.sqrt(np.maximum(window_energy, floor) * template_energy)
    return np.abs(corr) / denom


def _extract_centre_bins(samples, params, useful_start):
    """FFT one useful symbol and return its centre 62 subcarriers."""
    useful = samples[useful_start : useful_start + params.fft_size]
    bins = np.fft.fft(useful) / np.sqrt(params.fft_size)
    low = (np.arange(-31, 0)) % params.fft_size
    high = np.arange(1, 32)
    return np.concatenate([bins[low], bins[high]])


def pss_candidates(samples, params):
    """Best correlation peak per PSS root, in deterministic rank order.

    Candidates are sorted strongest-first; roots whose metrics fall within
    :data:`PSS_TIE_TOLERANCE` (relative to the strongest) are ordered by
    root index — i.e. by ``(metric, cell ID)`` — so a superposed capture
    with two near-equal cells always ranks the same way regardless of
    floating-point residue.
    """
    samples = np.asarray(samples, dtype=complex)
    if not isinstance(params, LteParams):
        params = LteParams.from_bandwidth(params)
    sss_to_pss = params.fft_size + params.cp_other
    candidates = []
    for n_id_2 in (0, 1, 2):
        metric = correlate_pss(samples, params, n_id_2)
        # The SSS symbol must exist before the PSS.
        metric[:sss_to_pss] = 0.0
        peak = int(np.argmax(metric))
        candidates.append(
            PssCandidate(n_id_2=n_id_2, offset=peak, metric=float(metric[peak]))
        )
    return rank_candidates(candidates)


def rank_candidates(candidates):
    """Order candidates by (metric, identity) with a tie tolerance.

    Metrics are quantised to :data:`PSS_TIE_TOLERANCE` (relative to the
    strongest candidate) before sorting, so two roots separated only by
    float noise compare equal and the lower ``n_id_2`` — the lower cell
    ID — wins deterministically.
    """
    candidates = list(candidates)
    if not candidates:
        return []
    scale = max(max(abs(c.metric) for c in candidates), 1.0)
    quantum = max(PSS_TIE_TOLERANCE * scale, 1e-300)
    return sorted(
        candidates,
        key=lambda c: (-round(c.metric / quantum), c.n_id_2),
    )


def cell_search(samples, params):
    """Full cell search; returns the best :class:`CellSearchResult`.

    Finds the strongest PSS across the three roots (deterministic
    ``(metric, cell ID)`` ordering, see :func:`pss_candidates`), estimates
    the channel on the PSS, coherently detects the SSS one symbol earlier,
    and derives the frame start (the PSS sits in slot 0 or slot 10
    depending on which subframe the SSS indicates).
    """
    samples = np.asarray(samples, dtype=complex)
    if not isinstance(params, LteParams):
        params = LteParams.from_bandwidth(params)

    sss_to_pss = params.fft_size + params.cp_other

    best = pss_candidates(samples, params)[0]
    n_id_2, pss_start, pss_metric = best.n_id_2, best.offset, best.metric

    # Channel estimate on the 62 PSS subcarriers.
    y_pss = _extract_centre_bins(samples, params, pss_start)
    h = y_pss * np.conj(pss_sequence(n_id_2))

    # Equalise the SSS (symbol immediately before the PSS, same channel).
    y_sss = _extract_centre_bins(samples, params, pss_start - sss_to_pss)
    power = np.maximum(np.abs(h) ** 2, 1e-30)
    sss_eq = y_sss * np.conj(h) / power
    n_id_1, subframe, sss_metric = detect_sss(sss_eq, n_id_2)

    pss_slot = 0 if subframe == 0 else 10
    frame_start = pss_start - params.useful_start(pss_slot, PSS_SYMBOL_IN_SLOT)
    return CellSearchResult(
        n_id_2=n_id_2,
        n_id_1=n_id_1,
        subframe=subframe,
        frame_start=frame_start,
        pss_metric=pss_metric,
        sss_metric=float(sss_metric),
    )
