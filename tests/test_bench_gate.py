"""Unit tests for the bench regression gate (`repro bench --check`)."""

from repro.bench import GATE_METRICS, compare_to_baseline, format_check

BASE = {
    "sequence_cache": {"speedup": 1000.0},
    "trace_overhead": {"overhead_fraction": 0.001},
    "network": {"cache_hit_ratio": 0.5},
    "streaming": {"memory_ratio": 4.0},
    "substrate": {"overhead_fraction": 0.001},
}


def _with(path, value):
    import copy

    current = copy.deepcopy(BASE)
    node = current
    parts = path.split(".")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value
    return current


def test_identical_results_pass():
    report = compare_to_baseline(BASE, BASE, tolerance=0.25)
    assert report["passed"]
    assert report["regressions"] == []
    assert len(report["metrics"]) == len(GATE_METRICS)


def test_within_tolerance_passes():
    report = compare_to_baseline(
        _with("streaming.memory_ratio", 4.0 * 0.8), BASE, tolerance=0.25
    )
    assert report["passed"]


def test_higher_metric_regression_fails():
    report = compare_to_baseline(
        _with("streaming.memory_ratio", 4.0 * 0.5), BASE, tolerance=0.25
    )
    assert not report["passed"]
    assert report["regressions"] == ["streaming.memory_ratio"]


def test_log_scale_metric_uses_order_of_magnitude():
    # 1000x -> 400x is a 13% log10 drop: inside a 25% tolerance even
    # though the raw ratio collapsed by 60%.
    report = compare_to_baseline(
        _with("sequence_cache.speedup", 400.0), BASE, tolerance=0.25
    )
    assert report["passed"]
    # 1000x -> 2x (log10 falls 3 -> 0.3) is a real cache regression.
    report = compare_to_baseline(
        _with("sequence_cache.speedup", 2.0), BASE, tolerance=0.25
    )
    assert report["regressions"] == ["sequence_cache.speedup"]


def test_lower_metric_regression_and_absolute_slack():
    # Near-zero overhead: absolute slack keeps noise from tripping the
    # relative gate.
    report = compare_to_baseline(
        _with("trace_overhead.overhead_fraction", 0.004), BASE, tolerance=0.25
    )
    assert report["passed"]
    report = compare_to_baseline(
        _with("trace_overhead.overhead_fraction", 0.05), BASE, tolerance=0.25
    )
    assert report["regressions"] == ["trace_overhead.overhead_fraction"]


def test_missing_metric_is_reported_not_gated():
    import copy

    old_baseline = copy.deepcopy(BASE)
    del old_baseline["sequence_cache"]
    report = compare_to_baseline(BASE, old_baseline, tolerance=0.25)
    assert report["passed"]
    missing = [m for m in report["metrics"] if m["status"] == "missing"]
    assert [m["metric"] for m in missing] == ["sequence_cache.speedup"]
    assert "missing (not gated)" in format_check(report)


def test_metric_missing_from_current_run_fails_loudly():
    # The inverse of the old-baseline case: the baseline gates a metric
    # the new run never produced (dropped section, renamed key).  That
    # must fail the gate and name the metric, not pass by omission.
    import copy

    current = copy.deepcopy(BASE)
    del current["streaming"]
    report = compare_to_baseline(current, BASE, tolerance=0.25)
    assert not report["passed"]
    assert report["regressions"] == ["streaming.memory_ratio"]
    text = format_check(report)
    assert "MISSING from current run" in text
    assert "bench gate: FAILED (streaming.memory_ratio)" in text


def test_network_hit_ratio_gated():
    # The multi-cell ambient cache falling from 50% to 10% hits means
    # captures are being regenerated per tag again.
    report = compare_to_baseline(
        _with("network.cache_hit_ratio", 0.1), BASE, tolerance=0.25
    )
    assert report["regressions"] == ["network.cache_hit_ratio"]
    assert compare_to_baseline(
        _with("network.cache_hit_ratio", 0.45), BASE, tolerance=0.25
    )["passed"]


def test_format_check_flags_regressions():
    report = compare_to_baseline(
        _with("streaming.memory_ratio", 0.1), BASE, tolerance=0.25
    )
    text = format_check(report)
    assert "streaming.memory_ratio" in text
    assert "REGRESSED" in text
    assert "bench gate: FAILED (streaming.memory_ratio)" in text


def test_substrate_dispatch_overhead_gated():
    # Registry dispatch growing from 0.1% to 5% of the direct demod time
    # means the substrate layer picked up real per-call work.
    report = compare_to_baseline(
        _with("substrate.overhead_fraction", 0.05), BASE, tolerance=0.25
    )
    assert report["regressions"] == ["substrate.overhead_fraction"]
    assert compare_to_baseline(
        _with("substrate.overhead_fraction", 0.004), BASE, tolerance=0.25
    )["passed"]


def test_format_check_names_the_baseline_file():
    # A failing CI log must say WHICH committed baseline the run
    # regressed against, not just which metric.
    report = compare_to_baseline(
        _with("streaming.memory_ratio", 0.1), BASE, tolerance=0.25
    )
    text = format_check(report, baseline_path="BENCH_PR7.json")
    assert "bench gate vs BENCH_PR7.json" in text
    assert "bench gate: FAILED vs BENCH_PR7.json (streaming.memory_ratio)" in text
    # Without a path the wording stays as before.
    bare = format_check(report)
    assert "bench gate: FAILED (streaming.memory_ratio)" in bare


def test_zero_tolerance_requires_no_worse():
    report = compare_to_baseline(
        _with("streaming.memory_ratio", 3.999), BASE, tolerance=0.0
    )
    assert report["regressions"] == ["streaming.memory_ratio"]
    assert compare_to_baseline(BASE, BASE, tolerance=0.0)["passed"]
