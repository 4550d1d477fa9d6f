"""A tiny campaign-capable experiment whose points can be made to crash.

Used by the kill-mid-campaign tests: the grid has four points, and any
value listed in :data:`CRASH_ON` raises from ``run_point`` — after the
earlier points have already been checkpointed (the runner executes
serially with ``workers=1``).  Tests monkeypatch the experiment registry
to route the id ``"crashy"`` at this module.
"""

from repro.experiments.registry import ExperimentResult

#: Point values whose ``run_point`` raises; mutate from tests.
CRASH_ON = set()

DESCRIPTION = "crash-injection campaign fixture"


def campaign_points(seed=0, smoke=False):
    values = (0, 1) if smoke else (0, 1, 2, 3)
    return [{"value": value} for value in values]


def run_point(params, seed):
    value = params["value"]
    if value in CRASH_ON:
        raise RuntimeError(f"injected crash at value={value}")
    return {"value": value, "squared": float(value * value + seed)}


def aggregate(rows, seed=0):
    return ExperimentResult(
        name="crashy",
        description=DESCRIPTION,
        rows=list(rows),
        notes=f"seed={seed}",
    )
