"""Scenario configuration for the end-to-end simulation."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from repro.channel.link import LinkBudget
from repro.channel.pathloss import VENUE_PRESETS
from repro.lte.frame import CellConfig
from repro.lte.params import SUPPORTED_BANDWIDTHS_MHZ, LteParams
from repro.utils.validation import require_finite, require_whole


@dataclass
class SystemConfig:
    """Everything that defines one LScatter experiment run.

    Distances are in feet, as the paper reports them.
    """

    bandwidth_mhz: float = 20.0
    venue: str = "smart_home"
    enb_to_tag_ft: float = 3.0
    tag_to_ue_ft: float = 3.0
    tx_power_dbm: float = 10.0
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
    #: Optional :class:`repro.faults.plan.FaultPlan` — seeded carrier and
    #: tag fault injection at the stage boundaries.  ``None`` (and any
    #: all-zero plan) leaves the pipeline bit-identical to the clean run.
    faults: object = None
    #: Receiver erasure detection: fraction of *known* preamble chips a
    #: packet may mis-slice before its windows are declared erasures
    #: (sync loss) instead of bits.  ``None`` disables (legacy behaviour);
    #: 0.35 is a robust default when fault injection is in play.
    erasure_threshold: float = None
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
        if not (
            isinstance(self.bandwidth_mhz, numbers.Real)
            and float(self.bandwidth_mhz) in SUPPORTED_BANDWIDTHS_MHZ
        ):
            raise ValueError(
                f"bandwidth_mhz must be one of {SUPPORTED_BANDWIDTHS_MHZ} MHz, "
                f"got {self.bandwidth_mhz!r}"
            )
        if self.venue not in VENUE_PRESETS:
            raise ValueError(
                f"venue must be one of {sorted(VENUE_PRESETS)}, "
                f"got {self.venue!r}"
            )
        # Zero distances are legal: path loss clamps at 0.1 m.
        require_finite("enb_to_tag_ft", self.enb_to_tag_ft, minimum=0.0)
        require_finite("tag_to_ue_ft", self.tag_to_ue_ft, minimum=0.0)
        # The budget checks the power, naming it.
        self.budget()
        require_finite("structural_reflection_db", self.structural_reflection_db)
        if self.sync_mode not in ("circuit", "model"):
            raise ValueError("sync_mode must be 'circuit' or 'model'")
        if self.reference_mode not in ("decoded", "genie"):
            raise ValueError("reference_mode must be 'decoded' or 'genie'")
        require_whole("n_frames", self.n_frames, minimum=1)
        self.n_frames = int(self.n_frames)
        if self.sync_error_samples is not None:
            require_whole("sync_error_samples", self.sync_error_samples)
        if self.erasure_threshold is not None and not (
            0.0 <= float(self.erasure_threshold) <= 1.0
        ):
            raise ValueError(
                f"erasure_threshold must be in [0, 1] or None, "
                f"got {self.erasure_threshold!r}"
            )
        if self.window_snr_gate_db is not None:
            require_finite("window_snr_gate_db", self.window_snr_gate_db)
            self.window_snr_gate_db = float(self.window_snr_gate_db)
        require_whole("sync_resync_attempts", self.sync_resync_attempts, minimum=0)
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
    def enb_to_ue_ft(self):
        """The direct path: the UE sits in line behind the tag."""
        return self.enb_to_tag_ft + self.tag_to_ue_ft

    @property
    def params(self):
        return LteParams.from_bandwidth(self.bandwidth_mhz)

    def budget(self):
        """The run's :class:`LinkBudget`: the default carrier and gains."""
        return LinkBudget(tx_power_dbm=self.tx_power_dbm, venue=self.venue)
