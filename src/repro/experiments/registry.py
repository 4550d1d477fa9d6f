"""Experiment registry and result container."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

#: Experiment id -> (module, one-line description).
_EXPERIMENTS = {
    "table1": ("repro.experiments.table1_features", "Excitation-signal feature matrix"),
    "fig04": ("repro.experiments.fig04_traffic_cdf", "Traffic occupancy CDFs (week)"),
    "fig08": ("repro.experiments.fig08_sync_stages", "Sync-circuit stage outputs"),
    "fig12": ("repro.experiments.fig12_constellation", "Phase-offset constellations"),
    "fig16": ("repro.experiments.fig16_17_smart_home", "Smart home 24 h throughput"),
    "fig17": ("repro.experiments.fig16_17_smart_home", "Smart home 24 h occupancy"),
    "fig18": ("repro.experiments.fig18_bandwidth", "Throughput vs LTE bandwidth"),
    "fig19": ("repro.experiments.fig19_distance_matrix", "Distance-matrix throughput"),
    "fig21": ("repro.experiments.fig21_22_mall", "Mall 10am-9pm throughput"),
    "fig22": ("repro.experiments.fig21_22_mall", "Mall occupancy"),
    "fig23": ("repro.experiments.fig23_24_mall_distance", "Mall throughput vs distance"),
    "fig24": ("repro.experiments.fig23_24_mall_distance", "Mall BER vs distance"),
    "fig26": ("repro.experiments.fig26_29_outdoor", "Outdoor 24 h throughput"),
    "fig27": ("repro.experiments.fig26_29_outdoor", "Outdoor occupancy"),
    "fig28": ("repro.experiments.fig26_29_outdoor", "Outdoor throughput vs distance"),
    "fig29": ("repro.experiments.fig26_29_outdoor", "Outdoor BER vs distance"),
    "fig30": ("repro.experiments.fig30_amplified", "40 dBm range matrix"),
    "fig31": ("repro.experiments.fig31_sync_accuracy", "Sync error CDF"),
    "fig32": ("repro.experiments.fig32_lte_impact", "Impact on LTE throughput"),
    "fig33": ("repro.experiments.fig33_auth", "Continuous-auth update rate"),
    "power": ("repro.experiments.power_table", "Tag power consumption (§4.8)"),
    "fleetn": ("repro.experiments.fleet_scaling", "Network throughput vs. tag count"),
    "netgrid": ("repro.experiments.netgrid", "Multi-cell goodput vs ISD / interferers"),
    "stressgrid": ("repro.experiments.stressgrid", "Goodput vs attack intensity per stress scenario"),
    "subgrid": ("repro.experiments.subgrid", "Cross-substrate goodput/BER vs distance and occupancy"),
}

REGISTRY = dict(_EXPERIMENTS)


@dataclass
class ExperimentResult:
    """Rows a paper table/figure reports, plus context."""

    name: str
    description: str
    rows: list = field(default_factory=list)
    notes: str = ""

    def columns(self):
        cols = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def format_table(self):
        """Plain-text table of the rows (floats to 4 significant digits)."""
        cols = self.columns()
        lines = ["\t".join(cols)]
        for row in self.rows:
            cells = []
            for col in cols:
                value = row.get(col, "")
                if isinstance(value, float):
                    value = f"{value:.4g}"
                cells.append(str(value))
            lines.append("\t".join(cells))
        return "\n".join(lines)


def resolve_module(experiment_id):
    """Import and return the module backing an experiment id.

    Shared by the experiment runner and the campaign layer
    (:mod:`repro.campaign`), which probes the module for the
    ``campaign_points`` / ``run_point`` / ``aggregate`` protocol.
    """
    experiment_id = experiment_id.lower()
    if experiment_id not in _EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_EXPERIMENTS)}"
        )
    module_name, _ = _EXPERIMENTS[experiment_id]
    return importlib.import_module(module_name)


def get_experiment(experiment_id):
    """Resolve an experiment id to its ``run`` callable."""
    experiment_id = experiment_id.lower()
    module = resolve_module(experiment_id)
    # Modules covering several figures expose run_<id>; single ones, run.
    specific = getattr(module, f"run_{experiment_id}", None)
    return specific if specific is not None else module.run


def run_experiment(experiment_id, seed=0, **kwargs):
    """Run one experiment by id."""
    return get_experiment(experiment_id)(seed=seed, **kwargs)
