"""Thermal noise at IQ level.

Waveforms in the reproduction carry amplitudes in sqrt-milliwatt units, so
a sample stream with mean |x|^2 = p represents p mW of signal power.  The
matching noise floor for a receiver sampled at the signal bandwidth is
``kTB * NF`` over that bandwidth.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.units import dbm_to_watts, thermal_noise_dbm


def noise_std_for_bandwidth(bandwidth_hz, noise_figure_db=6.0):
    """Per-quadrature noise standard deviation in sqrt-mW units."""
    noise_dbm = thermal_noise_dbm(bandwidth_hz, noise_figure_db)
    noise_mw = dbm_to_watts(noise_dbm) * 1e3
    return float(np.sqrt(noise_mw / 2.0))


class NoiseDraws:
    """A generator's ``(2, n)`` noise draws, filled ahead on one worker thread.

    Most of :func:`add_thermal_noise` is the ``standard_normal`` fill, and
    numpy releases the GIL while it fills, so a caller can queue the draws
    it will need with :meth:`submit` and build the waveforms they go into
    meanwhile.  :meth:`take` hands out a draw's
    :class:`~concurrent.futures.Future` once, for :func:`add_thermal_noise`
    to wait on as ``draw``; nothing else keeps it, so a draw is freed as
    soon as it has been added.

    The draws are the ones inline calls would make: there is one worker,
    so they fill one at a time in submission order, with the same shape.
    The samples, and the generator's state once :meth:`close` returns,
    are therefore bit-identical, provided nothing else draws on ``rng``
    before then.  A draw that is never taken still advances the stream.
    The worker calls nothing but ``standard_normal``: tracing spans and
    timing wrappers stay on the caller's thread.

    Use it as a context manager.  Leaving the block joins the worker, so
    no thread outlives it and a process forked later inherits none.
    """

    def __init__(self, rng, n_samples):
        self._rng = rng
        self._shape = (2, int(n_samples))
        self._pending = {}
        # The thread starts at the first submit, not here.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="noise-draws"
        )

    def submit(self, name):
        """Queue the next draw, to be taken as ``name``."""
        self._pending[name] = self._executor.submit(
            self._rng.standard_normal, self._shape
        )

    def take(self, name):
        """The future of the draw queued as ``name``, handed out once."""
        return self._pending.pop(name)

    def close(self):
        """Join the worker and drop the draws never taken.

        A draw not yet started is cancelled.  One that ran is still read,
        so a failed draw raises here instead of silently handing its place
        in the stream to the next one.
        """
        self._executor.shutdown(wait=True, cancel_futures=True)
        untaken, self._pending = self._pending, {}
        for future in untaken.values():
            if not future.cancelled():
                future.result()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def add_thermal_noise(samples, bandwidth_hz, noise_figure_db=6.0, rng=None, draw=None):
    """Add kTB+NF complex noise to a sqrt-mW waveform; returns a new array.

    One ``(2, n)`` standard-normal draw holds the in-phase row, then the
    quadrature row: the same stream as two length-``n`` draws, leaving
    the generator in the same state.  It is drawn from ``rng`` here,
    unless ``draw`` hands in that draw made ahead: the future from
    :meth:`NoiseDraws.take`, which this waits for (``rng`` is then
    unused).  The draw is scaled in place and added to a copy of
    ``samples`` through its ``.real``/``.imag`` views, so the input is
    never written.  The result equals ``samples + std * (a + 1j * b)``
    bit for bit, since both forms round ``std * a`` and ``std * b`` once
    and add them to the parts once.
    """
    noisy = np.array(samples, dtype=complex)
    if draw is None:
        draw = make_rng(rng).standard_normal((2, len(noisy)))
    else:
        draw = draw.result()
        if draw.shape != (2, len(noisy)):
            raise ValueError(
                f"noise draw of shape {draw.shape} does not fit "
                f"{len(noisy)} samples"
            )
    draw *= noise_std_for_bandwidth(bandwidth_hz, noise_figure_db)
    noisy.real += draw[0]
    noisy.imag += draw[1]
    return noisy
