"""Shared utilities: unit conversions, seeded RNG helpers, DSP primitives."""

from repro.utils.units import (
    db_to_linear,
    dbm_to_watts,
    watts_to_dbm,
    feet_to_meters,
)
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.cache import cache_stats, clear_caches, memoize

__all__ = [
    "cache_stats",
    "clear_caches",
    "memoize",
    "db_to_linear",
    "dbm_to_watts",
    "watts_to_dbm",
    "feet_to_meters",
    "make_rng",
    "spawn_rngs",
]
