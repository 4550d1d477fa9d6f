"""Reporting: regenerate the paper's evaluation as one markdown document.

``build_report`` runs every registered experiment (heavy IQ ones can be
skipped or shrunk) and renders the rows plus notes into a single markdown
string; the CLI's ``report`` command writes it to disk.  Useful both as a
regression artefact and as the quickest way to eyeball the whole
reproduction.
"""

from __future__ import annotations

import time

from repro.experiments.registry import REGISTRY, run_experiment

#: Experiments that run the IQ pipeline (seconds each); skipped by default.
HEAVY_EXPERIMENTS = tuple(key for key, (_, _, iq) in REGISTRY.items() if iq)


def build_report(seed=0, include_heavy=False, experiment_ids=None):
    """Run experiments and return the markdown report string."""
    ids = sorted(experiment_ids or REGISTRY)
    lines = [
        "# LScatter reproduction report",
        "",
        "Regenerated tables/figures of *Leveraging Ambient LTE Traffic for",
        "Ubiquitous Passive Communication* (SIGCOMM 2020).",
        "",
    ]
    for experiment_id in ids:
        if experiment_id not in REGISTRY:
            raise KeyError(f"unknown experiment {experiment_id!r}")
        if not include_heavy and experiment_id in HEAVY_EXPERIMENTS:
            lines += [
                f"## {experiment_id} — {REGISTRY[experiment_id][1]}",
                "",
                "*(skipped: IQ-level experiment; rerun with --heavy)*",
                "",
            ]
            continue
        started = time.time()
        result = run_experiment(experiment_id, seed=seed)
        elapsed = time.time() - started
        lines += [
            f"## {experiment_id} — {result.description}",
            "",
            _markdown_table(result),
            "",
        ]
        if result.notes:
            lines += [f"> {result.notes}", ""]
        lines += [f"*({elapsed:.2f} s)*", ""]
    return "\n".join(lines)


def _markdown_table(result, max_columns=12):
    columns = result.columns()[:max_columns]
    if not columns:
        return "*(no rows)*"
    header = "| " + " | ".join(columns) + " |"
    divider = "|" + "---|" * len(columns)
    rows = []
    for row in result.rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                value = f"{value:.4g}"
            cells.append(str(value))
        rows.append("| " + " | ".join(cells) + " |")
    return "\n".join([header, divider] + rows)


def write_report(path, seed=0, include_heavy=False, experiment_ids=None):
    """Build and write the report; returns the path."""
    text = build_report(seed, include_heavy, experiment_ids)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path
