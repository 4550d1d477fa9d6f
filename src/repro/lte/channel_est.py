"""CRS-based channel estimation over the resource grid.

Least-squares estimates at the pilot comb, linear interpolation across
frequency within each CRS symbol, then linear interpolation across time for
the symbols in between.  Also estimates the post-equalisation noise
variance from pilot residuals, which feeds the soft demapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.lte.crs import CRS_SYMBOLS_IN_SLOT, crs_positions, crs_values
from repro.lte.params import LteParams, SLOTS_PER_FRAME
from repro.lte.resource_grid import SYMBOLS_PER_FRAME, symbol_index
from repro.utils.cache import memoize


@dataclass
class ChannelEstimate:
    """Per-RE channel gains and a scalar noise-variance estimate."""

    gains: np.ndarray  # (140, n_subcarriers) complex
    noise_variance: float

    @cached_property
    def gain_power(self):
        """``|H|^2`` per RE, floored at 1e-12 (computed once per estimate)."""
        return np.maximum(np.abs(self.gains) ** 2, 1e-12)

    def equalize(self, observed):
        """MMSE-flavoured one-tap equalisation of an observed grid."""
        return observed * np.conj(self.gains) / self.gain_power


@dataclass(frozen=True)
class _Knots:
    """Where ``np.interp(x, xp, fp)`` places each ``x`` among the knots ``xp``.

    numpy copies ``fp[j]`` when ``x == xp[j]``, clamps to ``fp[0]`` and
    ``fp[-1]`` outside the knots, and otherwise returns
    ``slope * (x - xp[j]) + fp[j]`` with
    ``slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])``, ``xp[j] < x``
    being the last knot below ``x``.
    """

    line_at: np.ndarray  # the x between two knots
    line_knot: np.ndarray  # their j
    line_gap: np.ndarray  # xp[j + 1] - xp[j], as float
    line_offset: np.ndarray  # x - xp[j], as float
    copy_at: np.ndarray  # the x that take a knot's value
    copy_knot: np.ndarray  # that knot


def _knots(x, xp):
    """Place every ``x`` among the increasing knots ``xp`` as ``np.interp``
    does."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    j = np.searchsorted(xp, x, side="right") - 1
    knot = np.clip(j, 0, len(xp) - 1)
    copy = (j < 0) | (j >= len(xp) - 1) | (xp[knot] == x)
    line = j[~copy]
    return _Knots(
        line_at=np.flatnonzero(~copy),
        line_knot=line,
        line_gap=xp[line + 1] - xp[line],
        line_offset=x[~copy] - xp[line],
        copy_at=np.flatnonzero(copy),
        copy_knot=knot[copy],
    )


def _interp_leading(fp, knots, out):
    """Write ``np.interp`` of complex ``fp`` along its leading axis into
    ``out``, for the real and imaginary part of every trailing column.

    Each part goes through numpy's own sequence of IEEE operations, so for
    finite ``fp`` the result equals per-column ``np.interp`` calls bit for
    bit.
    """
    lo = fp[knots.line_knot]
    line = fp[knots.line_knot + 1] - lo
    parts = line.view(float).reshape(line.shape + (2,))
    per_x = (-1,) + (1,) * line.ndim
    parts /= knots.line_gap.reshape(per_x)
    parts *= knots.line_offset.reshape(per_x)
    line += lo
    out[knots.line_at] = line
    out[knots.copy_at] = fp[knots.copy_knot]


@dataclass(frozen=True)
class _PilotLayout:
    """A frame's 40 CRS symbols for one ``(cell_id, n_rb)``, in slot order."""

    rows: np.ndarray  # (40,) grid rows
    cols: np.ndarray  # (40, 2 * n_rb) pilot subcarriers
    conj_pilots: np.ndarray  # (40, 2 * n_rb)
    pilot_power: np.ndarray  # (40, 2 * n_rb) |pilot|^2
    frequency: tuple  # per CRS symbol of a slot: its comb -> every subcarrier
    time: _Knots  # pilot rows -> all 140 rows


@memoize(maxsize=64)
def _pilot_layout(cell_id, n_rb):
    rows, cols, pilots = [], [], []
    for slot in range(SLOTS_PER_FRAME):
        for sym in CRS_SYMBOLS_IN_SLOT:
            rows.append(symbol_index(slot, sym))
            cols.append(crs_positions(sym, cell_id, n_rb))
            pilots.append(crs_values(slot, sym, cell_id, n_rb))
    pilots = np.asarray(pilots)
    subcarriers = np.arange(12 * n_rb)
    return _PilotLayout(
        rows=np.asarray(rows),
        cols=np.asarray(cols),
        conj_pilots=np.conj(pilots),
        pilot_power=np.abs(pilots) ** 2,
        frequency=tuple(
            _knots(subcarriers, crs_positions(sym, cell_id, n_rb))
            for sym in CRS_SYMBOLS_IN_SLOT
        ),
        time=_knots(np.arange(SYMBOLS_PER_FRAME), rows),
    )


def estimate_channel(observed_grid, cell_id, params):
    """Estimate the channel from one observed frame grid.

    ``observed_grid`` is the (140, n_subcarriers) output of
    :func:`repro.lte.ofdm.demodulate_frame`.
    """
    if not isinstance(params, LteParams):
        params = LteParams.from_bandwidth(params)
    n_sc = params.n_subcarriers
    observed_grid = np.asarray(observed_grid, dtype=complex)
    if observed_grid.shape != (SYMBOLS_PER_FRAME, n_sc):
        raise ValueError(f"grid shape {observed_grid.shape} unexpected")
    layout = _pilot_layout(cell_id, params.n_rb)

    ls = (
        observed_grid[layout.rows[:, None], layout.cols]
        * layout.conj_pilots
        / layout.pilot_power
    )
    # Smooth across each comb (the channel varies slowly over six
    # subcarriers).  One np.convolve per symbol: numpy's complex
    # convolution sums through BLAS, so a 2-D three-term sum would not
    # give the same bits.
    kernel = np.ones(3) / 3.0
    smoothed = np.stack(
        [
            np.convolve(np.concatenate([row[:1], row, row[-1:]]), kernel, mode="valid")
            for row in ls
        ]
    )

    # Interpolate to every subcarrier (the symbols at one position in
    # their slots share a comb), then across time: linear between pilot
    # symbols, held at the edges.
    per_slot = len(CRS_SYMBOLS_IN_SLOT)
    across = np.empty((len(ls), n_sc), dtype=complex)
    for first, knots in enumerate(layout.frequency):
        _interp_leading(smoothed[first::per_slot].T, knots, across[first::per_slot].T)
    gains = np.empty((SYMBOLS_PER_FRAME, n_sc), dtype=complex)
    _interp_leading(across, layout.time, gains)

    # Pilot residuals after smoothing measure the noise (the 3-tap
    # average leaves ~2/3 of the noise in the residual); the symbols'
    # energies add up in frame order.
    residual_energy = 0.0
    for energy in (np.sum(np.abs(ls - smoothed) ** 2, axis=1) * 1.5).tolist():
        residual_energy += energy
    noise_variance = residual_energy / max(ls.size, 1)
    # The LS-vs-smoothed residual under-counts noise slightly (the smoothing
    # absorbs some of it); keep a floor so LLRs never blow up.
    noise_variance = max(noise_variance, 1e-10)
    return ChannelEstimate(gains=gains, noise_variance=noise_variance)
