"""Downlink frame construction: PSS + SSS + CRS + PDSCH.

:class:`FrameBuilder` assembles a standard-shaped 10 ms frame:

* PSS in the last symbol of slots 0 and 10 (centre 62 subcarriers);
* SSS in the symbol before each PSS;
* port-0 CRS on symbols 0 and 4 of every slot;
* every remaining resource element carries PDSCH data — one transport
  block per 1 ms subframe, CRC-24A + tail-biting convolutional coded,
  rate matched, scrambled, and QAM modulated.

Control channels (PBCH/PDCCH/PCFICH) are intentionally not modelled: the
paper's experiments only depend on sync signals, reference signals and a
decodable data channel.  Their REs are given to the PDSCH, which slightly
*overstates* baseline LTE throughput uniformly across experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lte import coding
from repro.lte.crs import CRS_SYMBOLS_IN_SLOT, crs_positions, crs_values
from repro.lte.modulation import BITS_PER_SYMBOL, modulate
from repro.lte.params import LteParams, SLOTS_PER_FRAME, SUBFRAMES_PER_FRAME
from repro.lte.pss import PSS_SLOTS, PSS_SYMBOL_IN_SLOT, pss_sequence
from repro.lte.resource_grid import ReKind, ResourceGrid
from repro.lte.sss import SSS_SLOTS, SSS_SYMBOL_IN_SLOT, sss_sequence
from repro.utils.cache import memoize
from repro.utils.rng import make_rng

#: Default code rate target for transport-block sizing (mother code is 1/3).
DEFAULT_CODE_RATE = 1.0 / 3.0

#: The PDSCH's radio network temporary identifier, which seeds its
#: scrambling sequence (36.211 §6.3.1).
RNTI = 0x003D

#: eNodeB PSS/SSS power offset relative to data REs (dB).  Real
#: deployments boost sync signals a few dB; the paper's Fig. 4b shows the
#: PSS clearly brighter than the surrounding traffic, which is what the
#: tag's envelope circuit keys on.
SYNC_BOOST_DB = 6.0


@dataclass(frozen=True)
class CellConfig:
    """Identity and scheduling parameters of the simulated eNodeB."""

    n_id_1: int = 0
    n_id_2: int = 0
    modulation: str = "qpsk"
    code_rate: float = DEFAULT_CODE_RATE
    #: Fraction of subframes actually carrying PDSCH data.  An srsLTE
    #: eNodeB with light traffic — the paper's testbed — transmits mostly
    #: sync/reference signals; 1.0 models a full-buffer carrier.
    pdsch_load: float = 1.0

    def __post_init__(self):
        if not 0 <= self.n_id_1 <= 167:
            raise ValueError("N_ID^(1) must be 0..167")
        if self.n_id_2 not in (0, 1, 2):
            raise ValueError("N_ID^(2) must be 0..2")
        if self.modulation not in BITS_PER_SYMBOL:
            raise ValueError(
                f"modulation must be one of {sorted(BITS_PER_SYMBOL)}, "
                f"got {self.modulation!r}"
            )
        if not 0.0 < self.code_rate <= 1.0:
            raise ValueError("code rate must be in (0, 1]")
        if not 0.0 <= self.pdsch_load <= 1.0:
            raise ValueError(f"pdsch_load must be in [0, 1], got {self.pdsch_load!r}")

    @property
    def cell_id(self):
        """Physical cell identity N_ID = 3 * N_ID^(1) + N_ID^(2)."""
        return 3 * self.n_id_1 + self.n_id_2


@dataclass
class TransportBlock:
    """One subframe's PDSCH payload and where it was mapped."""

    subframe: int
    payload_bits: np.ndarray
    coded_length: int
    n_data_res: int
    rows: np.ndarray
    cols: np.ndarray


@dataclass
class LteFrame:
    """A built frame: the grid, its IQ samples, and genie information."""

    params: LteParams
    cell: CellConfig
    frame_number: int
    grid: ResourceGrid
    transport_blocks: list = field(default_factory=list)

    @property
    def payload_bit_count(self):
        """Total PDSCH payload bits (before CRC) in this frame."""
        return int(sum(len(tb.payload_bits) for tb in self.transport_blocks))


class FrameBuilder:
    """Build standard-shaped LTE downlink frames with random payloads."""

    def __init__(self, params, cell=None, rng=None):
        self.params = params if isinstance(params, LteParams) else LteParams.from_bandwidth(params)
        self.cell = cell or CellConfig()
        self.rng = make_rng(rng)

    # -- sync and pilots ----------------------------------------------------

    def _place_sync(self, grid):
        boost = 10.0 ** (SYNC_BOOST_DB / 20.0)
        pss = pss_sequence(self.cell.n_id_2) * boost
        centre62 = grid.centre_indices(62)
        for slot in PSS_SLOTS:
            grid.place(slot, PSS_SYMBOL_IN_SLOT, centre62, pss, ReKind.PSS)
        for slot in SSS_SLOTS:
            subframe = 0 if slot == 0 else 5
            sss = sss_sequence(self.cell.n_id_1, self.cell.n_id_2, subframe)
            grid.place(
                slot,
                SSS_SYMBOL_IN_SLOT,
                centre62,
                sss.astype(complex) * boost,
                ReKind.SSS,
            )

    def _place_crs(self, grid):
        cell_id = self.cell.cell_id
        for slot in range(SLOTS_PER_FRAME):
            for sym in CRS_SYMBOLS_IN_SLOT:
                cols = crs_positions(sym, cell_id, self.params.n_rb)
                values = crs_values(slot, sym, cell_id, self.params.n_rb)
                grid.place(slot, sym, cols, values, ReKind.CRS)

    def _place_pbch(self, grid, frame_number):
        from repro.lte.pbch import Mib, encode_mib, pbch_positions

        mib = Mib(
            bandwidth_mhz=self.params.bandwidth_mhz,
            system_frame_number=int(frame_number) % 1024,
        )
        symbols = encode_mib(mib, self.params, self.cell.cell_id)
        cursor = 0
        for slot, sym, cols in pbch_positions(self.params, self.cell.cell_id):
            take = symbols[cursor : cursor + len(cols)]
            grid.place(slot, sym, cols, take, ReKind.PBCH)
            cursor += len(cols)

    # -- data ---------------------------------------------------------------

    def _place_data(self, grid, payloads=None):
        blocks = []
        for subframe, plan in enumerate(transport_plan(self.params, self.cell)):
            if payloads is None and self.rng.random() > self.cell.pdsch_load:
                # Unscheduled subframe: data REs stay silent (light load).
                continue
            if payloads is not None:
                payload = np.asarray(payloads[subframe], dtype=np.int8)
                if len(payload) != plan.tb_size:
                    raise ValueError(
                        f"subframe {subframe} payload must be {plan.tb_size} bits"
                    )
            else:
                payload = self.rng.integers(0, 2, size=plan.tb_size).astype(np.int8)
            with_crc = coding.crc_attach(payload, "crc24a")
            coded = coding.conv_encode(with_crc)
            matched = coding.rate_match(coded, plan.target_bits)
            scrambled = coding.scramble_bits(matched, plan.c_init)
            symbols = modulate(scrambled, self.cell.modulation)
            grid.mark_data(plan.rows, plan.cols, symbols)
            blocks.append(
                TransportBlock(
                    subframe=subframe,
                    payload_bits=payload,
                    coded_length=len(coded),
                    n_data_res=len(plan.rows),
                    rows=plan.rows,
                    cols=plan.cols,
                )
            )
        return blocks

    # -- public API ----------------------------------------------------------

    def build(self, frame_number=0, payloads=None):
        """Build one frame; returns an :class:`LteFrame`.

        ``payloads`` (optional) supplies the ten per-subframe payload bit
        arrays explicitly — used when re-synthesising a frame from decoded
        transport blocks.
        """
        grid = ResourceGrid(self.params)
        self._place_sync(grid)
        self._place_crs(grid)
        self._place_pbch(grid, frame_number)
        blocks = self._place_data(grid, payloads)
        return LteFrame(
            params=self.params,
            cell=self.cell,
            frame_number=int(frame_number),
            grid=grid,
            transport_blocks=blocks,
        )


def build_structure(params, cell=None):
    """A grid with only PSS/SSS/CRS placed — the frame's fixed skeleton.

    Receivers use this to know which resource elements carry data without
    any genie knowledge of the payload itself (in a real network the same
    information comes from the PDCCH).
    """
    if not isinstance(params, LteParams):
        params = LteParams.from_bandwidth(params)
    builder = FrameBuilder(params, cell or CellConfig(), rng=0)
    grid = ResourceGrid(params)
    builder._place_sync(grid)
    builder._place_crs(grid)
    builder._place_pbch(grid, frame_number=0)
    return grid


@dataclass(frozen=True)
class SubframePlan:
    """Where one subframe's transport block is mapped, and its sizes.

    ``rows``/``cols`` are the subframe's data REs in mapping order,
    ``target_bits`` the rate-matched length they carry, ``tb_size`` the
    payload bits before the CRC-24A, and ``c_init`` the PDSCH scrambling
    seed.
    """

    rows: np.ndarray
    cols: np.ndarray
    target_bits: int
    tb_size: int
    c_init: int


#: A plan holds two int64 arrays over a frame's data REs (2.6 MB at
#: 20 MHz), so the cache is bounded; a city grid's cells fit.
@memoize(maxsize=32)
def transport_plan(params, cell):
    """The ten :class:`SubframePlan` of a cell's frames, in subframe order.

    The one owner of transport-block sizing: the builder maps data with it
    (at transmit and when rebuilding a decoded reference) and the receiver
    demaps with it.  Data REs are whatever :func:`build_structure` leaves
    free; neither they nor the sizes depend on the frame number.

    >>> plan = transport_plan(LteParams.from_bandwidth(1.4), CellConfig())
    >>> len(plan), plan[0].tb_size < plan[1].tb_size
    (10, True)
    """
    rows, cols = build_structure(params, cell).data_positions()
    # Group data REs by subframe (14 symbols each).
    subframe_of_row = rows // 14
    bits_per_re = BITS_PER_SYMBOL[cell.modulation]
    plans = []
    for subframe in range(SUBFRAMES_PER_FRAME):
        in_sf = subframe_of_row == subframe
        target_bits = int(np.count_nonzero(in_sf)) * bits_per_re
        # CRC-24A overhead; keep at least the encoder memory plus a little
        # payload.
        tb_size = max(int(target_bits * cell.code_rate) - 24, 16)
        plans.append(
            SubframePlan(
                rows=rows[in_sf],
                cols=cols[in_sf],
                target_bits=target_bits,
                tb_size=tb_size,
                c_init=coding.pdsch_c_init(RNTI, subframe, cell.cell_id),
            )
        )
    return tuple(plans)
