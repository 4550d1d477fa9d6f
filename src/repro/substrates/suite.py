"""Cross-substrate comparison suite behind ``repro substrates``.

For every substrate mode the suite runs three checks over one
short shared-geometry capture (1.4 MHz, 2 frames, genie reference, model
sync):

* **link** — a close-range run must carry bits with BER below a loose
  floor (every mode is error-free there in practice; the floor catches
  a receiver that silently stopped demodulating);
* **noop** — a severity-0 :class:`~repro.faults.plan.FaultPlan` must be
  bit-identical to running with no plan at all (the fault hooks are
  pass-through when every knob is zero);
* **ladder** (full mode only) — the endpoints of the mode's tuned
  distance arm from :mod:`repro.experiments.subgrid` must degrade
  monotonically: one step of the campaign grids' gate
  (:func:`repro.experiments.gates.step_violation`).

The chip mode additionally runs an **identity** check: an explicit
``substrate="chip"`` config must reproduce the default config's report
field-for-field — the substrate dispatch must cost nothing in bits.

The report JSON (``SUBSTRATES_PR10.json``; smoke runs default under
``artifacts/``) carries one comparison row per mode plus the per-check
verdicts, and ``passed`` only when every check held.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.system import LScatterSystem
from repro.experiments.gates import step_violation
from repro.experiments.subgrid import DISTANCE_ARMS, base_config
from repro.faults.plan import FaultPlan
from repro.substrates import available_substrates, get_substrate
from repro.utils.integrity import write_json

#: Close-range link check: any BER above this means the receiver broke.
LINK_BER_CEILING = 0.05

PAYLOAD_LENGTH = 4000
N_FRAMES = 2


def _run(config, seed):
    return LScatterSystem(config, rng=seed).run(payload_length=PAYLOAD_LENGTH)


def _report_fields(report):
    return {
        "n_bits": int(report.n_bits),
        "n_errors": int(report.n_errors),
        "n_windows": int(report.n_windows),
        "n_lost_windows": int(report.n_lost_windows),
        "n_erased_windows": int(report.n_erased_windows),
        "goodput_kbps": report.throughput_bps / 1e3,
        "ber": float(report.ber),
    }


def _check_link(mode, seed):
    fields = _report_fields(_run(base_config(mode), seed))
    passed = fields["n_bits"] > 0 and fields["ber"] <= LINK_BER_CEILING
    return {"passed": bool(passed), **fields}


def _check_noop(mode, seed):
    clean = _report_fields(_run(base_config(mode, faults=None), seed))
    noop = _report_fields(
        _run(base_config(mode, faults=FaultPlan.none(seed=seed)), seed)
    )
    return {"passed": clean == noop, "clean": clean, "noop": noop}


def _check_ladder(mode, seed):
    power, distances = DISTANCE_ARMS[mode]
    points = []
    for distance in (distances[0], distances[-1]):
        config = base_config(
            mode, tag_to_ue_ft=float(distance), tx_power_dbm=power
        )
        fields = _report_fields(_run(config, seed))
        points.append({"distance_ft": float(distance), **fields})
    passed = step_violation(*points) is None
    return {"passed": passed, "tx_power_dbm": power, "points": points}


def _check_identity(seed):
    explicit = _report_fields(_run(base_config("chip"), seed))
    # A config that never names the field, the exact spelling
    # pre-substrate callers use.
    implicit = _report_fields(
        _run(
            SystemConfig(
                bandwidth_mhz=1.4,
                n_frames=N_FRAMES,
                reference_mode="genie",
                sync_mode="model",
                multipath=False,
                enb_to_tag_ft=3.0,
                tag_to_ue_ft=3.0,
            ),
            seed,
        )
    )
    return {
        "passed": explicit == implicit,
        "explicit": explicit,
        "implicit": implicit,
    }


def run_suite(output, smoke=False, seed=0, substrate=None):
    """Run the comparison suite; writes ``output`` and returns the report."""
    modes = available_substrates() if substrate is None else (substrate,)
    report = {
        "seed": int(seed),
        "smoke": bool(smoke),
        "modes": {},
        "comparison": [],
        "passed": True,
    }
    for mode in modes:
        checks = {
            "link": _check_link(mode, seed),
            "noop": _check_noop(mode, seed),
        }
        if not smoke:
            checks["ladder"] = _check_ladder(mode, seed)
        if mode == "chip":
            checks["identity"] = _check_identity(seed)
        report["modes"][mode] = checks
        report["comparison"].append(
            {
                "substrate": mode,
                "ambient_kind": get_substrate(mode).ambient_kind,
                **{
                    k: checks["link"][k]
                    for k in ("goodput_kbps", "ber", "n_bits")
                },
            }
        )
        if not all(c["passed"] for c in checks.values()):
            report["passed"] = False
    write_json(output, report)
    return report


def format_report(report):
    """Plain-text comparison table plus per-check verdicts."""
    lines = [
        f"{'substrate':12s} {'ambient':14s} {'goodput kbps':>12s} "
        f"{'BER':>10s} {'bits':>7s}  checks"
    ]
    for row in report["comparison"]:
        checks = report["modes"][row["substrate"]]
        verdicts = " ".join(
            f"{name}={'OK' if c['passed'] else 'FAILED'}"
            for name, c in sorted(checks.items())
        )
        lines.append(
            f"{row['substrate']:12s} {row['ambient_kind']:14s} "
            f"{row['goodput_kbps']:12.3f} {row['ber']:10.3e} "
            f"{row['n_bits']:7d}  {verdicts}"
        )
    lines.append(
        f"substrates: {'PASSED' if report['passed'] else 'FAILED'}"
    )
    return "\n".join(lines)
