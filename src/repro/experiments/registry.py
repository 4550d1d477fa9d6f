"""Experiment registry, result container, and the one experiment protocol.

A sweep experiment (one of the paper's parameter sweeps) is
*campaign-capable*: its module exposes three callables, shared or
suffixed ``_<id>`` in a module that covers several figures:

* ``campaign_points(seed=, smoke=, ...)`` — the ordered, JSON-safe
  parameter grid; its keywords are the experiment's keywords;
* ``run_point(params, seed)`` — one pure grid point returning one row;
* ``aggregate(rows, seed=)`` — the rows, in grid order, into the
  :class:`ExperimentResult`.

:func:`run_experiment` runs a sweep's whole grid as points → run_point →
aggregate, and :mod:`repro.campaign` shards the same grid, so sharded and
unsharded runs agree by construction.  Every other experiment is its
module's ``run(seed=0, **kwargs)``.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field


#: Experiment id -> (module, one-line description, whether it runs the IQ
#: pipeline: ``LScatterSystem``, ``SyncCircuit``, a fleet or a network).
REGISTRY = {
    "table1": ("repro.experiments.table1_features", "Excitation-signal feature matrix", False),
    "fig04": ("repro.experiments.fig04_traffic_cdf", "Traffic occupancy CDFs (week)", False),
    "fig08": ("repro.experiments.fig08_sync_stages", "Sync-circuit stage outputs", True),
    "fig12": ("repro.experiments.fig12_constellation", "Phase-offset constellations", False),
    "fig16": ("repro.experiments.fig16_17_smart_home", "Smart home 24 h throughput", False),
    "fig17": ("repro.experiments.fig16_17_smart_home", "Smart home 24 h occupancy", False),
    "fig18": ("repro.experiments.fig18_bandwidth", "Throughput vs LTE bandwidth", True),
    "fig19": ("repro.experiments.fig19_distance_matrix", "Distance-matrix throughput", False),
    "fig21": ("repro.experiments.fig21_22_mall", "Mall 10am-9pm throughput", False),
    "fig22": ("repro.experiments.fig21_22_mall", "Mall occupancy", False),
    "fig23": ("repro.experiments.fig23_24_mall_distance", "Mall throughput vs distance", False),
    "fig24": ("repro.experiments.fig23_24_mall_distance", "Mall BER vs distance", False),
    "fig26": ("repro.experiments.fig26_29_outdoor", "Outdoor 24 h throughput", False),
    "fig27": ("repro.experiments.fig26_29_outdoor", "Outdoor occupancy", False),
    "fig28": ("repro.experiments.fig26_29_outdoor", "Outdoor throughput vs distance", False),
    "fig29": ("repro.experiments.fig26_29_outdoor", "Outdoor BER vs distance", False),
    "fig30": ("repro.experiments.fig30_amplified", "40 dBm range matrix", False),
    "fig31": ("repro.experiments.fig31_sync_accuracy", "Sync error CDF", True),
    "fig32": ("repro.experiments.fig32_lte_impact", "Impact on LTE throughput", True),
    "fig33": ("repro.experiments.fig33_auth", "Continuous-auth update rate", False),
    "power": ("repro.experiments.power_table", "Tag power consumption (§4.8)", False),
    "fleetn": ("repro.experiments.fleet_scaling", "Network throughput vs. tag count", True),
    "netgrid": ("repro.experiments.netgrid", "Multi-cell goodput vs ISD / interferers", True),
    "stressgrid": ("repro.experiments.stressgrid", "Goodput vs attack intensity per stress scenario", True),
    "subgrid": ("repro.experiments.subgrid", "Cross-substrate goodput/BER vs distance and occupancy", True),
}


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


@dataclass(frozen=True)
class CampaignDef:
    """The resolved campaign protocol of one sweep experiment."""

    points: object
    run_point: object
    aggregate: object


def resolve_module(experiment_id):
    """Import and return the module backing an experiment id.

    Unknown ids raise a ``KeyError`` naming every known id.
    """
    experiment_id = experiment_id.lower()
    if experiment_id not in REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        )
    module_name, _, _ = REGISTRY[experiment_id]
    return importlib.import_module(module_name)


def _resolve(module, base, experiment_id):
    """``<base>_<id>`` in a multi-figure module, else the shared ``<base>``."""
    specific = getattr(module, f"{base}_{experiment_id}", None)
    return specific if specific is not None else getattr(module, base, None)


def _campaign(experiment_id):
    """The id's :class:`CampaignDef`, or ``None`` when it is not a sweep."""
    experiment_id = experiment_id.lower()
    module = resolve_module(experiment_id)
    parts = [
        _resolve(module, base, experiment_id)
        for base in ("campaign_points", "run_point", "aggregate")
    ]
    if any(part is None for part in parts):
        return None
    return CampaignDef(*parts)


def get_campaign(experiment_id):
    """The :class:`CampaignDef` for an experiment id.

    Raises ``KeyError`` for unknown experiments and for registry
    experiments that are not sweeps.
    """
    definition = _campaign(experiment_id)
    if definition is None:
        raise KeyError(
            f"experiment {experiment_id.lower()!r} has no campaign support; "
            f"campaign-capable experiments: {', '.join(campaign_capable())}"
        )
    return definition


def campaign_capable():
    """Sorted ids of every registry experiment that is a sweep."""
    return [i for i in sorted(REGISTRY) if _campaign(i) is not None]


def _run(experiment_id):
    """The ``run`` of an experiment that is not a sweep."""
    experiment_id = experiment_id.lower()
    return _resolve(resolve_module(experiment_id), "run", experiment_id)


def experiment_keywords(experiment_id):
    """The keywords :func:`run_experiment` takes for an id, besides ``seed``.

    A sweep declares them in its ``campaign_points``.
    """
    definition = _campaign(experiment_id)
    declaring = _run(experiment_id) if definition is None else definition.points
    return tuple(
        name for name in inspect.signature(declaring).parameters if name != "seed"
    )


def run_experiment(experiment_id, seed=0, **kwargs):
    """Run one experiment by id; a sweep runs its whole campaign grid."""
    definition = _campaign(experiment_id)
    if definition is None:
        return _run(experiment_id)(seed=seed, **kwargs)
    rows = [
        definition.run_point(params, seed)
        for params in definition.points(seed=seed, **kwargs)
    ]
    return definition.aggregate(rows, seed=seed)
