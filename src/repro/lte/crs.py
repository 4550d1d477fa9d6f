"""Cell-specific reference signals (CRS, 36.211 §6.10.1) — antenna port 0.

These are the "reference signals on different subcarriers in the original
LTE PHY layer" that LScatter's receiver exploits to eliminate the
backscatter phase offset (paper Eq. 6), so their exact placement and values
matter to the reproduction:

* symbols 0 and 4 of every slot (normal CP, port 0);
* every 6th subcarrier, with a cell-dependent frequency shift
  ``v_shift = N_cell_ID mod 6`` and an extra +3 shift on symbol 4;
* values are QPSK points drawn from a Gold sequence seeded by
  (slot, symbol, cell id).
"""

from __future__ import annotations

import numpy as np

from repro.lte.gold import gold_qpsk
from repro.utils.cache import memoize

#: Symbols within a slot that carry CRS on port 0 (normal CP).
CRS_SYMBOLS_IN_SLOT = (0, 4)

#: Maximum downlink resource blocks, used as the sequence-index anchor.
N_RB_MAX = 110


def crs_c_init(slot, symbol_in_slot, cell_id):
    """Gold-sequence initial state for one CRS symbol (36.211 §6.10.1.1).

    The trailing ``+ 1`` is N_CP for the normal cyclic prefix, the only
    one modelled.
    """
    return (
        1024 * (7 * (slot + 1) + symbol_in_slot + 1) * (2 * cell_id + 1)
        + 2 * cell_id
        + 1
    )


def crs_subcarrier_offset(symbol_in_slot, cell_id):
    """Frequency offset (0..5) of the CRS comb for port 0."""
    if symbol_in_slot == 0:
        v = 0
    elif symbol_in_slot == 4:
        v = 3
    else:
        raise ValueError(
            f"symbol {symbol_in_slot} does not carry CRS on port 0 (normal CP)"
        )
    return (v + cell_id % 6) % 6


@memoize()
def crs_positions(symbol_in_slot, cell_id, n_rb):
    """Data-subcarrier indices (0-based, low frequency first) carrying CRS.

    Returns ``2 * n_rb`` indices, one every 6 subcarriers.
    """
    offset = crs_subcarrier_offset(symbol_in_slot, cell_id)
    m = np.arange(2 * n_rb)
    return 6 * m + offset


@memoize()
def crs_values(slot, symbol_in_slot, cell_id, n_rb):
    """Complex CRS pilot values aligned with :func:`crs_positions`.

    The Gold sequence is generated for the maximal 110-RB grid and the
    centre ``2 * n_rb`` pilots are sliced out, so a narrowband receiver
    sees the same pilots as a wideband one (36.211's ``m' = m + 110 - N_RB``).
    """
    c_init = crs_c_init(slot, symbol_in_slot, cell_id)
    full = gold_qpsk(c_init, 2 * N_RB_MAX)
    start = N_RB_MAX - n_rb
    return full[start : start + 2 * n_rb]
