"""Experiment harness: one module per table/figure of the paper.

The registry maps experiment ids ("fig16", "table1", ...) to their
modules.  A sweep module exposes the campaign protocol
(``campaign_points`` / ``run_point`` / ``aggregate``), which both
:func:`run_experiment` and :mod:`repro.campaign` run; every other module
exposes ``run(seed=0, **kwargs) -> ExperimentResult``.  ``python -m
repro.experiments <id>`` prints any experiment as a table.
"""

from repro.experiments.registry import (
    ExperimentResult,
    REGISTRY,
    run_experiment,
)

__all__ = ["ExperimentResult", "REGISTRY", "run_experiment"]
