"""Scenario configuration for the end-to-end simulation."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from repro.channel.link import (
    DEFAULT_CARRIER_HZ,
    DEFAULT_NOISE_FIGURE_DB,
    DEFAULT_SYSTEM_GAIN_DB,
    DEFAULT_TAG_LOSS_DB,
    LinkBudget,
)
from repro.lte.frame import CellConfig
from repro.lte.params import LteParams


def _require_finite(name, value, minimum=None):
    """Reject a non-numeric, NaN or infinite ``value``, naming the field."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum:g}"
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


@dataclass
class SystemConfig:
    """Everything that defines one LScatter experiment run.

    Distances are in feet, as the paper reports them.
    """

    bandwidth_mhz: float = 20.0
    venue: str = "smart_home"
    enb_to_tag_ft: float = 3.0
    tag_to_ue_ft: float = 3.0
    enb_to_ue_ft: float = None  # defaults to enb_to_tag + tag_to_ue
    tx_power_dbm: float = 10.0
    carrier_hz: float = DEFAULT_CARRIER_HZ
    system_gain_db: float = DEFAULT_SYSTEM_GAIN_DB
    tag_loss_db: float = DEFAULT_TAG_LOSS_DB
    noise_figure_db: float = DEFAULT_NOISE_FIGURE_DB
    cell: CellConfig = field(default_factory=CellConfig)
    n_frames: int = 2
    #: "circuit" runs the analog sync simulation; "model" draws the sync
    #: error from the circuit's calibrated distribution (fast); an integer
    #: via ``sync_error_samples`` pins it exactly.
    sync_mode: str = "model"
    sync_error_samples: int = None
    #: "decoded" reconstructs the ambient reference from the UE's own LTE
    #: decode (the deployable receiver); "genie" uses the transmitted
    #: samples directly (fast, used by wide parameter sweeps).
    reference_mode: str = "decoded"
    multipath: bool = True
    add_noise: bool = True
    #: Structural (unmodulated, in-band) reflection of the tag relative to
    #: the modulated backscatter — the residual the Fig. 32 impact
    #: experiment measures.
    structural_reflection_db: float = -15.0
    #: UE local-oscillator error in parts-per-million of the carrier.
    #: 0 models a perfect LO; real crystals are +-(0.1-1) ppm and the UE
    #: estimates/corrects the resulting CFO from the cyclic prefix.
    ue_cfo_ppm: float = 0.0
    #: Optional :class:`repro.faults.plan.FaultPlan` — seeded carrier and
    #: tag fault injection at the stage boundaries.  ``None`` (and any
    #: all-zero plan) leaves the pipeline bit-identical to the clean run.
    faults: object = None
    #: Receiver erasure detection: fraction of *known* preamble chips a
    #: packet may mis-slice before its windows are declared erasures
    #: (sync loss) instead of bits.  ``None`` disables (legacy behaviour);
    #: 0.35 is a robust default when fault injection is in play.
    erasure_threshold: float = None
    #: Backscatter demodulation chunking: ``None`` demodulates the whole
    #: capture at once; an integer runs the chunked streaming receiver
    #: (:class:`repro.bsrx.streaming.StreamingDemodulator`) with that many
    #: half-frames per chunk — bit-identical output, O(chunk) demod
    #: working set.
    demod_chunk_half_frames: int = None
    #: Per-window SNR-gated erasure escalation (dB): data windows whose
    #: post-detection SNR proxy falls below this are emitted as erasures
    #: even when the packet's preamble passed — graceful degradation under
    #: in-packet jammer bursts.  ``None`` disables (legacy behaviour).
    window_snr_gate_db: float = None
    #: Adaptive re-sync budget for ``sync_mode="circuit"``: when the
    #: comparator finds no PSS edges, retry up to this many times with a
    #: geometrically relaxed threshold margin (bounded exponential
    #: backoff).  0 keeps the legacy single-pass circuit bit-identical.
    sync_resync_attempts: int = 0
    #: Which ambient-substrate mode the tag/receiver pair runs (see
    #: :mod:`repro.substrates`).  ``"chip"`` — the paper's scheme — keeps
    #: the pipeline bit-identical to the pre-substrate code.
    substrate: str = "chip"

    def __post_init__(self):
        # Zero distances are legal: path loss clamps at 0.1 m.
        _require_finite("enb_to_tag_ft", self.enb_to_tag_ft, minimum=0.0)
        _require_finite("tag_to_ue_ft", self.tag_to_ue_ft, minimum=0.0)
        if self.enb_to_ue_ft is None:
            self.enb_to_ue_ft = self.enb_to_tag_ft + self.tag_to_ue_ft
        _require_finite("enb_to_ue_ft", self.enb_to_ue_ft, minimum=0.0)
        _require_finite("tx_power_dbm", self.tx_power_dbm)
        if self.sync_mode not in ("circuit", "model"):
            raise ValueError("sync_mode must be 'circuit' or 'model'")
        if self.reference_mode not in ("decoded", "genie"):
            raise ValueError("reference_mode must be 'decoded' or 'genie'")
        if not (
            isinstance(self.n_frames, numbers.Real)
            and float(self.n_frames).is_integer()
            and self.n_frames >= 1
        ):
            raise ValueError(
                f"n_frames must be a whole number >= 1, got {self.n_frames!r}"
            )
        self.n_frames = int(self.n_frames)
        if self.erasure_threshold is not None and not (
            0.0 <= float(self.erasure_threshold) <= 1.0
        ):
            raise ValueError(
                f"erasure_threshold must be in [0, 1] or None, "
                f"got {self.erasure_threshold!r}"
            )
        if self.demod_chunk_half_frames is not None:
            if int(self.demod_chunk_half_frames) < 1:
                raise ValueError(
                    f"demod_chunk_half_frames must be >= 1 or None, "
                    f"got {self.demod_chunk_half_frames!r}"
                )
            self.demod_chunk_half_frames = int(self.demod_chunk_half_frames)
        if self.window_snr_gate_db is not None:
            _require_finite("window_snr_gate_db", self.window_snr_gate_db)
            self.window_snr_gate_db = float(self.window_snr_gate_db)
        if int(self.sync_resync_attempts) < 0:
            raise ValueError(
                f"sync_resync_attempts must be >= 0, "
                f"got {self.sync_resync_attempts!r}"
            )
        self.sync_resync_attempts = int(self.sync_resync_attempts)
        # Imported lazily: repro.substrates pulls in the mode modules,
        # which must stay importable without this config module settled.
        from repro.substrates import available_substrates

        if self.substrate not in available_substrates():
            known = ", ".join(available_substrates())
            raise ValueError(
                f"unknown substrate {self.substrate!r}; "
                f"registered substrates: {known}"
            )

    @property
    def params(self):
        return LteParams.from_bandwidth(self.bandwidth_mhz)

    def budget(self):
        return LinkBudget(
            tx_power_dbm=self.tx_power_dbm,
            carrier_hz=self.carrier_hz,
            venue=self.venue,
            system_gain_db=self.system_gain_db,
            tag_loss_db=self.tag_loss_db,
            noise_figure_db=self.noise_figure_db,
        )
