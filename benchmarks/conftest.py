"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures via the
experiment registry, measures how long that takes, prints the same
rows/series the paper reports, and asserts the headline *shape* so a
regression in the reproduction fails loudly.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import time

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a heavy experiment with a single round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def min_call_seconds(fn, repeats):
    """Fastest wall time of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def mean_call_seconds(fn, loops=10_000):
    """Mean wall time of one call of a cheap ``fn``, over ``loops`` calls."""
    t0 = time.perf_counter()
    for _ in range(loops):
        fn()
    return (time.perf_counter() - t0) / loops


@pytest.fixture
def show_result():
    """Print an ExperimentResult table under ``-s``."""

    def _show(result, max_rows=30):
        print(f"\n# {result.name}: {result.description}")
        lines = result.format_table().splitlines()
        for line in lines[: max_rows + 1]:
            print(line)
        if result.notes:
            print(f"# {result.notes}")

    return _show
