"""Analog front-end of the tag: matching network + diode/RC envelope detector.

Paper Fig. 7: the antenna feeds an impedance matching network (C1, L1) —
modelled as a narrow band-pass around the carrier, matched to the 0.93 MHz
PSS bandwidth — then a diode + RC filter that outputs the envelope of the
selected sub-band.  The PSS stands out in this output because the eNodeB
transmits sync signals with a power boost and they fill the whole matched
sub-band (paper Fig. 8's black curve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import firwin, oaconvolve

from repro.utils.dsp import rc_alpha, rc_lowpass

#: PSS occupied bandwidth — what the matching network is tuned to.
PSS_BANDWIDTH_HZ = 0.93e6

#: Length of the matching network's FIR band-pass (taps).
MATCHING_FILTER_TAPS = 129

#: RC time constant of the envelope filter.  The paper requires
#: ``1/f_c < tau < 1/f_pss`` so the detector smooths over the carrier and
#: intra-symbol fluctuation but tracks the 200 Hz PSS cadence; 25 us
#: averages roughly a third of an OFDM symbol.
ENVELOPE_TAU_SECONDS = 25e-6


@dataclass
class EnvelopeTrace:
    """Output of the envelope detector over a capture."""

    sample_rate_hz: float
    envelope: np.ndarray  # RC-filtered envelope voltage (arbitrary units)

    @property
    def times(self):
        return np.arange(len(self.envelope)) / self.sample_rate_hz


class EnvelopeDetector:
    """Band-pass + rectifier + RC low-pass, at IQ sample level.

    The band-pass is matched to :data:`PSS_BANDWIDTH_HZ` and the RC filter
    has time constant :data:`ENVELOPE_TAU_SECONDS`.
    """

    def __init__(self, sample_rate_hz):
        self.sample_rate_hz = float(sample_rate_hz)
        if PSS_BANDWIDTH_HZ >= self.sample_rate_hz:
            # Narrowband carriers (1.4 MHz) are already inside the matched
            # band; no selection needed.
            self._taps = None
        else:
            cutoff = PSS_BANDWIDTH_HZ / 2.0
            self._taps = firwin(
                MATCHING_FILTER_TAPS, cutoff, fs=self.sample_rate_hz
            ).astype(float)

    def detect(self, samples):
        """Run the analog chain; returns an :class:`EnvelopeTrace`."""
        samples = np.asarray(samples, dtype=complex)
        if self._taps is not None:
            # Overlap-add: short transforms sized to the 129 taps, not two
            # transforms of the whole capture.
            selected = oaconvolve(samples, self._taps, mode="same")
        else:
            selected = samples
        # Diode rectifier: instantaneous magnitude of the sub-band signal.
        rectified = np.abs(selected)
        alpha = rc_alpha(ENVELOPE_TAU_SECONDS, self.sample_rate_hz)
        envelope = rc_lowpass(rectified, alpha)
        return EnvelopeTrace(sample_rate_hz=self.sample_rate_hz, envelope=envelope)
