"""Process-level memoisation for deterministic sequences and layouts.

Every LTE frame reuses the same PSS Zadoff-Chu sequence, SSS m-sequences,
Gold/CRS pilots, subcarrier index maps, and OFDM symbol layout — all pure
functions of ``(params, cell)``-style keys.  Regenerating them per use was
measurable in the frame hot path (and multiplies across every tag of the
fleet engine), so the PHY modules memoise them here.

Design rules:

* cached values are **read-only**: ndarray results (including those inside
  tuples/namedtuples) get ``setflags(write=False)`` so a caller cannot
  corrupt every future user of the cache — mutating callers must copy;
* every cache registers itself in a module registry, so tests and
  metric snapshots can inspect hit rates (:func:`cache_stats`) and tests
  can reset global state (:func:`clear_caches`);
* keys must be hashable; :class:`~repro.lte.params.LteParams` is a frozen
  dataclass and is used directly as a key.
"""

from __future__ import annotations

import dataclasses
import functools
import threading

import numpy as np

from repro.obs import metrics as _obs_metrics

#: name -> cached callable, for introspection and global clearing.
_CACHES = {}
_LOCK = threading.Lock()


def _freeze(value):
    """Make a cached result immutable (recursing into tuples/dataclasses)."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value
    if isinstance(value, tuple):
        frozen = [_freeze(v) for v in value]
        cls = type(value)
        if hasattr(cls, "_fields"):  # namedtuple
            return cls(*frozen)
        return tuple(frozen)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # setflags mutates the arrays in place, so a frozen dataclass's
        # fields can be locked without rebuilding the instance.
        for spec in dataclasses.fields(value):
            _freeze(getattr(value, spec.name))
        return value
    return value


def memoize(maxsize=None):
    """Memoise a deterministic function of hashable arguments.

    Results are frozen read-only (see :func:`_freeze`) and the cache is
    registered for :func:`cache_stats` / :func:`clear_caches`.

    >>> calls = []
    >>> @memoize()
    ... def seq(n):
    ...     calls.append(n)
    ...     return np.arange(n)
    >>> a, b = seq(3), seq(3)
    >>> a is b, calls, a.flags.writeable
    (True, [3], False)
    """

    def decorate(fn):
        @functools.lru_cache(maxsize=maxsize)
        def cached(*args, **kwargs):
            return _freeze(fn(*args, **kwargs))

        wrapper = functools.update_wrapper(cached, fn)
        with _LOCK:
            _CACHES[f"{fn.__module__}.{fn.__qualname__}"] = wrapper
        return wrapper

    return decorate


def cache_stats():
    """Per-cache ``{name: {hits, misses, maxsize, currsize}}`` snapshot."""
    with _LOCK:
        entries = dict(_CACHES)
    return {name: fn.cache_info()._asdict() for name, fn in entries.items()}


def _cache_totals():
    """Aggregate hit/miss/size totals across every registered cache.

    Registered as a pull-style collector with :mod:`repro.obs.metrics`,
    so metric snapshots report cache effectiveness without adding any
    counter work to the memoisation fast path.
    """
    totals = {"hits": 0, "misses": 0, "currsize": 0, "caches": 0}
    for stats in cache_stats().values():
        totals["hits"] += stats["hits"]
        totals["misses"] += stats["misses"]
        totals["currsize"] += stats["currsize"]
        totals["caches"] += 1
    return totals


_obs_metrics.register_collector("utils.cache", _cache_totals)


def clear_caches():
    """Empty every registered cache (used by tests; safe at any time)."""
    with _LOCK:
        entries = list(_CACHES.values())
    for fn in entries:
        fn.cache_clear()
