"""End-to-end IQ-level LScatter simulation.

One :meth:`LScatterSystem.run` call simulates the full paper pipeline:

  eNodeB frames -> (channel) -> tag [envelope sync -> scheduler -> RF
  switch] -> (channel) -> UE [LTE decode of the direct band, ambient
  reconstruction, backscatter chip demodulation] -> BER / throughput.

Two captures reach the UE: the **direct band** (the ambient LTE signal the
UE decodes normally — also how it rebuilds the reference waveform ``x_n``)
and the **shifted band** at ``fc + 1/Ts`` (the backscattered hybrid signal,
represented at its own baseband — the frequency shift of paper Eq. 4 is
implicit in the tuning).  A genie-reference run reads nothing from the
direct band, so it is built only if someone asks for it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.channel.fading import FadingChannel, venue_k_factor_db
from repro.channel.link import NOISE_FIGURE_DB, BackscatterLink, DirectLink
from repro.channel.noise import NoiseDraws, add_thermal_noise
from repro.core.config import SystemConfig
from repro.core.metrics import LinkReport
from repro.faults.carrier import CarrierFaultSet
from repro.lte.frame import FrameBuilder
from repro.lte.params import FRAME_SECONDS, SUBFRAMES_PER_FRAME
from repro.lte.ofdm import modulate_frame
from repro.lte.receiver import LteReceiver
from repro.lte.transmitter import LteTransmitter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.substrates import get_substrate
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.tag.sync_circuit import SyncCircuit
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.validation import require_whole

#: Residual sync-error distribution after the tag's calibration constant
#: (see :mod:`repro.tag.sync_circuit`): the raw 30-40 us comparator delay
#: is calibrated out; what remains is jitter.
RESIDUAL_SYNC_MEAN_SECONDS = 1e-6
RESIDUAL_SYNC_STD_SECONDS = 2.5e-6


def _require_finite_samples(name, samples, stage):
    """Fail before ``stage`` turns a NaN or inf into bits (one sum,
    non-finite whenever any sample is, is cheaper than a per-sample check)."""
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(np.sum(samples))
    if not finite:
        raise ValueError(f"{name} holds a non-finite sample entering {stage}")


@dataclass
class FrontEndState:
    """Everything stages 1-5 produce, short of demodulation.

    :meth:`LScatterSystem.run_frontend` returns one of these;
    :meth:`LScatterSystem.finalize_run` turns it plus a demod result into
    the :class:`~repro.core.metrics.LinkReport`.  The split lets the
    batched cross-tag runner hand many tags' front-ends to one
    :meth:`~repro.bsrx.demodulator.BackscatterDemodulator.demodulate_many`
    call without re-deriving any randomness.  Every RNG draw happens in
    the front end, in the same order as the monolithic run.  The one
    exception is a deferred direct band's noise draw, the last on its
    stream, which happens on the first read of :attr:`direct_rx`.

    ``half_starts`` is the UE's PSS-derived half-frame grid, cut to the
    tag's owned half-frames when the run has a MAC grant.  ``demod`` is
    set by a run with ``artifacts=True``, which returns this state as
    ``extras['artifacts']``.
    ``direct_band`` holds the direct-band capture, or, when nothing in
    the run reads that band (a genie reference), a zero-argument builder
    that makes it on the first read of :attr:`direct_rx` (DESIGN §16).
    """

    capture: object
    schedule: object
    shifted_rx: np.ndarray
    direct_band: object
    reference: np.ndarray
    half_starts: np.ndarray
    sync_failed: bool
    error_samples: int | None
    sync_result: object | None
    lte_result: object | None
    demod: object | None = None

    @property
    def direct_rx(self):
        """The UE's direct-band capture, built on first read if deferred."""
        if callable(self.direct_band):
            self.direct_band = self.direct_band()
        return self.direct_band


@dataclass
class AmbientStage:
    """Output of the reusable ambient half of a simulation.

    The eNodeB capture and its unit-power normalisation are deterministic
    per ``(bandwidth, cell, n_frames, transmitter seed)`` and independent
    of any tag, so one :class:`AmbientStage` can feed many per-tag stages
    (see :mod:`repro.fleet.ambient`, which also shares it across worker
    processes through a read-only memory map).
    """

    capture: object
    unit: np.ndarray

    @classmethod
    def from_capture(cls, capture):
        """The stage of one capture: its samples scaled to unit mean power."""
        mean_power = float(np.mean(np.abs(capture.samples) ** 2))
        return cls(capture=capture, unit=capture.samples / np.sqrt(mean_power))

    @property
    def n_samples(self):
        return len(self.unit)


class LScatterSystem:
    """Wire up one configured LScatter scenario."""

    def __init__(self, config=None, rng=None):
        self.config = config or SystemConfig()
        self.rng = make_rng(rng)
        self.params = self.config.params
        self.budget = self.config.budget()
        self.controller = TagController(self.params)
        self.modulator = ChipModulator()
        self.demodulator = BackscatterDemodulator(
            self.params,
            erasure_threshold=self.config.erasure_threshold,
            snr_gate_db=self.config.window_snr_gate_db,
        )
        # The substrate owns the mode-specific hooks (ambient synthesis,
        # schedule layout, demodulation, accounting); "chip" delegates to
        # the controller/demodulator above, bit-identically.
        substrate_cls = get_substrate(self.config.substrate)
        self.substrate = substrate_cls(self)
        if (
            self.config.reference_mode == "decoded"
            and not self.substrate.supports_decoded_reference
        ):
            raise ValueError(
                f"substrate {self.substrate.name!r} has no decodable downlink; "
                f"use reference_mode='genie'"
            )
        if (
            self.config.sync_mode == "circuit"
            and self.config.sync_error_samples is None
            and not self.substrate.supports_circuit_sync
        ):
            raise ValueError(
                f"substrate {self.substrate.name!r} has no PSS envelope for the "
                f"sync circuit; use sync_mode='model' or pin sync_error_samples"
            )

    # -- helpers ---------------------------------------------------------------

    def _fading(self, rng, distance_ft):
        """Small-scale fading for one hop.

        The Rician K factor grows as the hop shrinks — a tag a few feet
        from the eNodeB or UE sees an almost-flat channel, which is the
        regime the paper's receiver (and its Fig. 19 "within 15 feet of
        either end") operates in.
        """
        if not self.config.multipath:
            return FadingChannel.flat()
        k_db = venue_k_factor_db(self.config.venue, distance_ft)
        n_taps = 2 if self.config.venue == "outdoor" else 3
        return FadingChannel.rician(
            k_db=k_db, n_taps=n_taps, decay_db_per_tap=5.0, rng=rng
        )

    def _sync_error_samples(self, tag_band, rng):
        """Residual timing error of the tag, per the configured mode.

        ``tag_band`` is a zero-argument builder of the noisy ambient the
        tag's antenna sees; only circuit sync calls it.

        Returns ``(error_samples, sync_result)``; ``error_samples`` is
        ``None`` when the circuit detected no PSS edges at all (sync
        acquisition failed) — the tag then never transmits, and the run
        degrades to an empty schedule instead of raising.
        """
        config = self.config
        fs = self.params.sample_rate_hz
        if config.sync_error_samples is not None:
            return int(config.sync_error_samples), None
        if config.sync_mode == "circuit":
            circuit = SyncCircuit(
                fs,
                rng=rng,
                max_resync_attempts=config.sync_resync_attempts,
            )
            result = circuit.process(tag_band())
            if len(result.edges) == 0:
                return None, result
            timing = self.controller.timing_from_sync(
                result, true_half_frame_start=0
            )
            return int(timing.error_samples), result
        error_s = rng.normal(RESIDUAL_SYNC_MEAN_SECONDS, RESIDUAL_SYNC_STD_SECONDS)
        return int(round(error_s * fs)), None

    def _reconstruct_reference(self, direct_rx, tx_capture, lte_result):
        """Rebuild the ambient waveform the demodulator divides by.

        In ``decoded`` mode the UE re-synthesises each frame from the
        transport blocks it decoded (falling back to the noisy observation
        if a CRC failed or a frame produced no decoded subframes at all,
        which would degrade those chips — honest behaviour for a deployable
        receiver).  In ``genie`` mode the transmitted samples are used
        directly.

        The reference must stay sample-aligned with the capture: every
        transmitted frame contributes exactly ``samples_per_frame``
        samples whether or not it decoded.  (Iterating only over decoded
        frames silently dropped absent ones, shortening the reference and
        misaligning every later frame's chips.)
        """
        if self.config.reference_mode == "genie" or lte_result is None:
            return tx_capture.samples
        n = self.params.samples_per_frame
        n_frames = len(tx_capture.samples) // n
        builder = FrameBuilder(self.params, self.config.cell, rng=0)
        ref_power = None
        by_frame = {}
        for sf in lte_result.subframes:
            by_frame.setdefault(sf.frame, []).append(sf)
        pieces = []
        for f in range(n_frames):
            subframes = sorted(by_frame.get(f, []), key=lambda s: s.subframe)
            if len(subframes) == SUBFRAMES_PER_FRAME and all(
                sf.crc_ok for sf in subframes
            ):
                payloads = [sf.decoded for sf in subframes]
                grid = self._sent_grid(tx_capture, f, payloads)
                if grid is None:
                    grid = builder.build(frame_number=f, payloads=payloads).grid
                pieces.append(modulate_frame(grid))
            else:
                # CRC failure or missing frame: no clean reconstruction;
                # use the (scaled) received samples as the best available
                # reference so later frames stay aligned.
                if ref_power is None:
                    ref_power = np.mean(np.abs(tx_capture.samples[:n]) ** 2)
                chunk = direct_rx[f * n : (f + 1) * n]
                power = np.mean(np.abs(chunk) ** 2)
                scale = np.sqrt(ref_power / max(power, 1e-30))
                pieces.append(chunk * scale)
        return np.concatenate(pieces)

    def _sent_grid(self, tx_capture, f, payloads):
        """Frame ``f``'s transmitted grid, if rebuilding it from ``payloads``
        would give the same grid; otherwise ``None``.

        A rebuilt grid is a function of (params, cell, frame number,
        payloads) alone, so when those match the sent frame's, its grid is
        the rebuild.  The grid is reused rather than ``tx_capture.samples``,
        which a fleet or network capture holds unit-normalised.
        """
        if f >= len(tx_capture.frames):
            return None
        sent = tx_capture.frames[f]
        # One transport block per subframe: every subframe was scheduled.
        blocks = sent.transport_blocks
        if (
            sent.frame_number != f
            or sent.params != self.params
            or sent.cell != self.config.cell
            or len(blocks) != len(payloads)
            or not all(
                np.array_equal(block.payload_bits, payload)
                for block, payload in zip(blocks, payloads)
            )
        ):
            return None
        return sent.grid

    # -- ambient stage ----------------------------------------------------------

    def prepare_ambient(self, rng=None):
        """Run the ambient stage only: synthesize + normalise.

        Returns an :class:`AmbientStage` holding the ambient capture and
        its unit-mean-power samples.  ``rng`` seeds the transmitter; the
        result can be passed to :meth:`run` (``ambient=``) and reused
        across many per-tag simulations.  What the capture *is* — downlink
        LTE frames by default, an uplink SRS capture for ``srs-uplink`` —
        is the configured substrate's choice.
        """
        config = self.config
        with span("system.ambient") as sp:
            stage = self.substrate.prepare_ambient(rng=rng)
            sp.set(n_frames=int(config.n_frames), bandwidth_mhz=config.bandwidth_mhz)
        return stage

    def transmit_downlink_ambient(self, rng=None):
        """The default (downlink) ambient stage: eNodeB transmit + normalise."""
        config = self.config
        tx = LteTransmitter(config.bandwidth_mhz, cell=config.cell, rng=rng)
        return AmbientStage.from_capture(tx.transmit(config.n_frames))

    # -- main entry --------------------------------------------------------------

    def run(
        self,
        payload_bits=None,
        payload_length=20000,
        artifacts=False,
        ambient=None,
        owned_half_frames=None,
    ):
        """Simulate one capture; returns a :class:`LinkReport`.

        ``payload_bits`` may be an explicit bit array; otherwise
        ``payload_length`` random bits are generated.  With
        ``artifacts=True`` the report's ``extras['artifacts']`` carries the
        intermediate waveforms.

        ``ambient`` injects a precomputed :class:`AmbientStage` (the
        per-tag stage then skips the eNodeB transmit — the multi-tag fleet
        path); ``owned_half_frames`` restricts the tag to a MAC-assigned
        subset of half-frames (see
        :meth:`repro.tag.controller.TagController.build_schedule`).

        When tracing is enabled (:mod:`repro.obs.trace`) the whole call is
        one ``system.run`` span whose children are the pipeline stages.
        """
        with span("system.run") as sp:
            report = self._run(
                payload_bits, payload_length, artifacts, ambient, owned_half_frames
            )
            sp.set(
                n_windows=report.n_windows,
                n_bits=report.n_bits,
                ber=float(report.ber),
                sync_failed=report.sync_failed,
            )
        return report

    def _run(self, payload_bits, payload_length, artifacts, ambient, owned_half_frames):
        front = self.run_frontend(
            payload_bits=payload_bits,
            payload_length=payload_length,
            ambient=ambient,
            owned_half_frames=owned_half_frames,
        )
        demod = self._demodulate(front)
        return self.finalize_run(front, demod, artifacts=artifacts)

    def run_frontend(
        self,
        payload_bits=None,
        payload_length=20000,
        ambient=None,
        owned_half_frames=None,
    ):
        """Stages 1-5: everything up to (not including) demodulation.

        Returns a :class:`FrontEndState`.  All five RNG streams are spawned
        and consumed here exactly as in :meth:`run`, so
        ``finalize_run(front, demodulate(front...))`` is bit-identical to
        the monolithic call.

        The thermal-noise draws fill ahead on one worker thread
        (:class:`~repro.channel.noise.NoiseDraws`), queued in the order
        stages 2-4 add them, while this thread builds the bands.  The
        worker is joined before stage 5, so no thread outlives the call,
        whether it returns or raises.  With ``add_noise=False`` no worker
        starts (DESIGN §16).  A NaN or inf in the shifted band or the
        reference, or in the direct band a decoded reference reads, raises
        ``ValueError`` here, naming the array and the stage it was entering.
        """
        if payload_bits is None:
            require_whole("payload_length", payload_length, minimum=0)
        config = self.config
        rngs = spawn_rngs(self.rng.integers(0, 2**31 - 1), 5)
        rng_payload, rng_fade, rng_noise, rng_sync, rng_tx = rngs

        if payload_bits is None:
            payload_bits = rng_payload.integers(0, 2, size=int(payload_length))
        payload_bits = np.asarray(payload_bits, dtype=np.int8)

        # Fault injection: all fault randomness lives in streams derived
        # from the plan's own seed (FaultPlan.rng_for), never in the five
        # simulation streams above — an all-zero plan is a bit-identical
        # no-op by construction.
        fault_plan = config.faults
        if fault_plan is None:
            carrier_faults = None
            drift_per_half_frame = 0.0
        else:
            # One chain: the plan's injectors, in plan order.
            carrier_faults = CarrierFaultSet(fault_plan)
            drift_per_half_frame = fault_plan.drift_per_half_frame(self.params)

        # 1. eNodeB transmission, normalised to unit mean sample power
        #    (or injected, already normalised, from a shared ambient stage).
        if ambient is None:
            ambient = self.prepare_ambient(rng=rng_tx)
        capture = ambient.capture
        unit = ambient.unit
        if carrier_faults is not None:
            # Ambient dropout happens at the eNodeB: both the tag and the
            # UE lose the carrier in the gap windows.  The reconstruction
            # reference stays clean (capture.samples), which is the honest
            # receiver view — during a gap it divides by a waveform that
            # never arrived and the preamble collapse marks the erasure.
            unit = carrier_faults.apply_ambient(unit)

        # The session's noise draws fill on a worker thread while stages
        # 2-4 build the bands they go into (DESIGN §16).  Leaving the block
        # joins the worker, whether this returns or raises.
        fs = self.params.sample_rate_hz
        # Only a decoded reference reads the direct band; otherwise it is
        # built on first read, if ever.
        eager_direct = config.reference_mode == "decoded"
        noise = NoiseDraws(rng_noise, len(unit)) if config.add_noise else None
        with noise or contextlib.nullcontext():
            if noise is not None:
                # In the order the session uses them: the tag's band, the
                # shifted band, then the direct band if it is built now.
                noise.submit("tag")
                noise.submit("shifted")
                if eager_direct:
                    noise.submit("direct")

            # 2. Channels.
            with span("system.channel"):
                bs_link = BackscatterLink(
                    budget=self.budget,
                    enb_to_tag_ft=config.enb_to_tag_ft,
                    tag_to_ue_ft=config.tag_to_ue_ft,
                    fading_in=self._fading(rng_fade, config.enb_to_tag_ft),
                    fading_out=self._fading(rng_fade, config.tag_to_ue_ft),
                )
                direct_link = DirectLink(
                    budget=self.budget,
                    distance_ft=config.enb_to_ue_ft,
                    fading=self._fading(rng_fade, config.enb_to_ue_ft),
                )
                ambient_at_tag = bs_link.apply_to_tag(unit)

            def tag_band():
                # Only the sync circuit reads the tag's noisy view.  Its
                # draw is made either way: it advances rng_noise.
                if noise is None:
                    return ambient_at_tag
                return add_thermal_noise(
                    ambient_at_tag, fs, NOISE_FIGURE_DB, draw=noise.take("tag")
                )

            # 3. Tag: sync, schedule, reflect.
            with span("tag.sync") as sp:
                error_samples, sync_result = self._sync_error_samples(
                    tag_band, rng_sync
                )
                sync_failed = error_samples is None
                sp.set(sync_failed=sync_failed)
            if sync_failed:
                obs_metrics.counter_inc("system.sync_failures")
                # The comparator never fired: the tag cannot place a single
                # half-frame and stays silent (constant '1' chips, no windows)
                # rather than spraying mistimed chips over the capture.
                schedule = self.substrate.silent_schedule(len(unit))
            else:
                with span("tag.schedule") as sp:
                    timing = self.controller.genie_timing(0, error_samples)
                    schedule = self.substrate.build_schedule(
                        timing,
                        len(unit),
                        payload_bits,
                        owned_half_frames=owned_half_frames,
                        drift_per_half_frame=drift_per_half_frame,
                    )
                    sp.set(n_half_frames=int(schedule.n_half_frames))
            with span("tag.reflect"):
                reflected = self.modulator.reflect(ambient_at_tag, schedule.chips)

            # 4. Receive both bands at the UE.
            def receive_direct(draw=None):
                direct = direct_link.apply(unit)
                # Structural (unmodulated, in-band) tag reflection leaks into
                # the direct band as weak extra multipath.
                leak = 10.0 ** (config.structural_reflection_db / 20.0)
                direct = direct + leak * bs_link.apply_from_tag(ambient_at_tag)
                if config.add_noise:
                    # ``draw`` was made ahead for a band built now.  A
                    # deferred build draws here, after the worker's last
                    # draw, so it draws the same samples whenever it runs.
                    direct = add_thermal_noise(
                        direct, fs, NOISE_FIGURE_DB, rng_noise, draw=draw
                    )
                return direct

            with span("system.receive"):
                shifted_rx = bs_link.apply_from_tag(reflected)
                if carrier_faults is not None:
                    # Jammer bursts, impulsive noise and ADC clipping hit the
                    # backscatter band's receive chain, where the signal is
                    # weakest.  Co-channel ghost tags (tag-mob) reflect the
                    # tag-side ambient.
                    shifted_rx = carrier_faults.apply_backscatter(
                        shifted_rx, ambient=ambient_at_tag
                    )
                if noise is not None:
                    shifted_rx = add_thermal_noise(
                        shifted_rx,
                        fs,
                        NOISE_FIGURE_DB,
                        draw=noise.take("shifted"),
                    )
                direct_rx = None
                if eager_direct:
                    direct_rx = receive_direct(
                        None if noise is None else noise.take("direct")
                    )

        # 5. UE: LTE decode (for Fig. 32 and the ambient reconstruction).
        lte_result = None
        if config.reference_mode == "decoded":
            _require_finite_samples("direct_rx", direct_rx, "lte.decode")
            with span("lte.decode") as sp:
                ue = LteReceiver(self.params, config.cell)
                lte_result = ue.decode(direct_rx)
                sp.set(block_error_rate=float(lte_result.block_error_rate))
        with span("system.reference"):
            reference = self._reconstruct_reference(direct_rx, capture, lte_result)
        _require_finite_samples("shifted_rx", shifted_rx, "bsrx.demodulate")
        _require_finite_samples("reference", reference, "bsrx.demodulate")

        half = self.params.samples_per_frame // 2
        half_starts = np.arange(0, len(unit) - half + 1, half)
        if owned_half_frames is not None:
            # The receiver knows the MAC grant and demodulates only the
            # half-frames this tag owns (exact within the DESIGN §16 bound).
            owned = np.isin(np.arange(len(half_starts)), list(owned_half_frames))
            half_starts = half_starts[owned]
        return FrontEndState(
            capture=capture,
            schedule=schedule,
            shifted_rx=shifted_rx,
            direct_band=receive_direct if direct_rx is None else direct_rx,
            reference=reference,
            half_starts=half_starts,
            sync_failed=sync_failed,
            error_samples=error_samples,
            sync_result=sync_result,
            lte_result=lte_result,
        )

    def _demodulate(self, front):
        """Stage 6: the substrate demodulates the front end's capture."""
        with span("bsrx.demodulate") as sp:
            demod = self.substrate.demodulate(front)
            sp.set(
                n_windows=demod.n_data_windows, n_erased=demod.n_erased_windows
            )
        return demod

    def finalize_run(self, front, demod, artifacts=False):
        """Stage 7: metrics and the :class:`LinkReport`."""
        capture = front.capture
        schedule = front.schedule
        sync_failed = front.sync_failed
        error_samples = front.error_samples
        lte_result = front.lte_result

        tolerance = self.params.fft_size // 2
        with span("system.metrics"):
            breakdown = self.substrate.measure(schedule, demod, tolerance)
        # Throughput is measured over the time the tag actually had
        # scheduled (whole half-frames); a capture's ragged edge would
        # otherwise bias short simulations low.
        scheduled_seconds = schedule.n_half_frames * (FRAME_SECONDS / 2.0)
        report = LinkReport(
            n_bits=breakdown.n_bits,
            n_errors=breakdown.n_errors,
            duration_seconds=scheduled_seconds or capture.duration_seconds,
            n_windows=breakdown.n_windows,
            n_lost_windows=breakdown.n_lost,
            n_erased_windows=breakdown.n_erased,
            sync_failed=sync_failed,
            sync_error_us=(
                float("nan")
                if sync_failed
                else error_samples / self.params.sample_rate_hz * 1e6
            ),
        )
        if lte_result is not None:
            report.lte_block_error_rate = lte_result.block_error_rate
            report.lte_throughput_bps = lte_result.throughput_bps
        if artifacts:
            front.demod = demod
            report.extras["artifacts"] = front
        return report
