"""LTE downlink numerology (3GPP TS 36.211, FDD, normal cyclic prefix).

Everything in the reproduction that needs to know "how long is a symbol" or
"how many subcarriers does a 10 MHz carrier have" goes through
:class:`LteParams`.  The paper's basic-timing unit is exactly one sample of
the corresponding FFT, i.e. ``Ts = 66.7 us / fft_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.cache import memoize

#: Subcarrier spacing (Hz) — fixed at 15 kHz for LTE.
SUBCARRIER_SPACING_HZ = 15_000.0

#: Useful (non-CP) OFDM symbol duration in seconds: 1/15 kHz.
USEFUL_SYMBOL_SECONDS = 1.0 / SUBCARRIER_SPACING_HZ

#: Symbols per slot with a normal cyclic prefix.
SYMBOLS_PER_SLOT = 7

#: Slots per subframe / subframes per frame.
SLOTS_PER_SUBFRAME = 2
SUBFRAMES_PER_FRAME = 10
SLOTS_PER_FRAME = SLOTS_PER_SUBFRAME * SUBFRAMES_PER_FRAME

#: Slot / subframe / frame durations in seconds.
SLOT_SECONDS = 0.5e-3
SUBFRAME_SECONDS = 1.0e-3
FRAME_SECONDS = 10.0e-3

#: Reference sampling period Ts = 1 / (15000 * 2048) seconds (36.211 §4).
TS_REFERENCE_SECONDS = 1.0 / (SUBCARRIER_SPACING_HZ * 2048)

#: PSS repetition period: twice per 10 ms frame.
PSS_PERIOD_SECONDS = 5.0e-3

#: Number of occupied PSS subcarriers (62 + DC hole) -> 0.93 MHz.
PSS_SUBCARRIERS = 62

#: (bandwidth MHz -> (number of resource blocks, FFT size)) per 36.104.
_BANDWIDTH_TABLE = {
    1.4: (6, 128),
    3.0: (15, 256),
    5.0: (25, 512),
    10.0: (50, 1024),
    15.0: (75, 1536),
    20.0: (100, 2048),
}

#: Subcarriers per resource block.
SUBCARRIERS_PER_RB = 12

#: Supported bandwidths, ascending (MHz).
SUPPORTED_BANDWIDTHS_MHZ = tuple(sorted(_BANDWIDTH_TABLE))


@dataclass(frozen=True)
class LteParams:
    """Derived numerology for one LTE downlink carrier.

    Use :func:`LteParams.from_bandwidth` rather than the constructor.
    """

    bandwidth_mhz: float
    n_rb: int
    fft_size: int
    sample_rate_hz: float = field(init=False)
    n_subcarriers: int = field(init=False)
    cp_first: int = field(init=False)
    cp_other: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "sample_rate_hz", self.fft_size * SUBCARRIER_SPACING_HZ
        )
        object.__setattr__(self, "n_subcarriers", self.n_rb * SUBCARRIERS_PER_RB)
        # Normal-CP lengths scale with FFT size: 160/144 at 2048.
        object.__setattr__(self, "cp_first", (160 * self.fft_size) // 2048)
        object.__setattr__(self, "cp_other", (144 * self.fft_size) // 2048)
        # Where each symbol starts within its slot (entry 7 is the slot's
        # length), computed once: the geometry queries below run thousands
        # of times a session.  Not a field, so repr and equality ignore it.
        starts = [0]
        for sym in range(SYMBOLS_PER_SLOT):
            starts.append(starts[-1] + self.symbol_length(sym))
        object.__setattr__(self, "_symbol_starts", tuple(starts))

    @classmethod
    def from_bandwidth(cls, bandwidth_mhz):
        """Build params for one of the six standard LTE bandwidths.

        >>> LteParams.from_bandwidth(20.0).n_subcarriers
        1200
        >>> LteParams.from_bandwidth(1.4).sample_rate_hz
        1920000.0
        """
        key = float(bandwidth_mhz)
        if key not in _BANDWIDTH_TABLE:
            raise ValueError(
                f"unsupported LTE bandwidth {bandwidth_mhz} MHz; "
                f"choose one of {SUPPORTED_BANDWIDTHS_MHZ}"
            )
        n_rb, fft_size = _BANDWIDTH_TABLE[key]
        return cls(bandwidth_mhz=key, n_rb=n_rb, fft_size=fft_size)

    def symbol_length(self, symbol_in_slot):
        """Total samples (CP + useful) of symbol ``symbol_in_slot`` (0..6)."""
        if not 0 <= symbol_in_slot < SYMBOLS_PER_SLOT:
            raise ValueError(f"symbol index {symbol_in_slot} out of range")
        cp = self.cp_first if symbol_in_slot == 0 else self.cp_other
        return cp + self.fft_size

    def cp_length(self, symbol_in_slot):
        """Cyclic-prefix samples of symbol ``symbol_in_slot`` (0..6)."""
        if not 0 <= symbol_in_slot < SYMBOLS_PER_SLOT:
            raise ValueError(f"symbol index {symbol_in_slot} out of range")
        return self.cp_first if symbol_in_slot == 0 else self.cp_other

    @property
    def samples_per_slot(self):
        """Samples in one 0.5 ms slot."""
        return self._symbol_starts[SYMBOLS_PER_SLOT]

    @property
    def samples_per_subframe(self):
        """Samples in one 1 ms subframe."""
        return 2 * self.samples_per_slot

    @property
    def samples_per_frame(self):
        """Samples in one 10 ms frame."""
        return SUBFRAMES_PER_FRAME * self.samples_per_subframe

    def symbol_start(self, slot, symbol_in_slot):
        """Sample offset (from frame start) of a symbol's first CP sample.

        ``symbol_in_slot`` 7 is the end of the slot.
        """
        if not 0 <= slot < SLOTS_PER_FRAME:
            raise ValueError(f"slot index {slot} out of range")
        if not 0 <= symbol_in_slot <= SYMBOLS_PER_SLOT:
            raise ValueError(f"symbol index {symbol_in_slot} out of range")
        return slot * self.samples_per_slot + self._symbol_starts[symbol_in_slot]

    def useful_start(self, slot, symbol_in_slot):
        """Sample offset of the first *useful* (post-CP) sample of a symbol."""
        return self.symbol_start(slot, symbol_in_slot) + self.cp_length(symbol_in_slot)

    def subcarrier_indices(self):
        """FFT bin index for each of the ``n_subcarriers`` data subcarriers.

        Subcarrier ``k`` (0-based from the lowest frequency) maps around DC
        with the DC bin itself unused, matching 36.211 resource-grid
        conventions.  Cached per numerology; the returned array is
        read-only — copy before mutating.
        """
        return _subcarrier_indices(self.n_subcarriers, self.fft_size)


@memoize()
def _subcarrier_indices(n_subcarriers, fft_size):
    half = n_subcarriers // 2
    low = (np.arange(half) - half) % fft_size
    high = np.arange(1, half + 1)
    return np.concatenate([low, high])
