"""The perturbation table and the one sweep harness of chaos and stress.

:data:`PERTURBATIONS` holds every way the reproduction perturbs the
ambient carrier — the five fault kinds of :mod:`repro.faults.chaos` and
the six scenarios of :mod:`repro.stress.scenarios` — each as a function
from one intensity in [0, 1] to a :class:`~repro.faults.plan.FaultPlan`
of one injector (``drift`` sets the plan's ``clock_drift_ppm`` instead),
plus whether its goodput curve is gated monotone.  ``drift`` alone is
not: it is a threshold fault (chips ride the guard slack until the walk
exceeds it, and in-slack shifts can flip single decisions either way).

Both harnesses and the ``stressgrid`` campaign share the session
(:class:`SweepConfig`, :func:`run_session`), the no-op contract and the
point record; :func:`sweep` is the harnesses' degradation curve.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import SystemConfig
from repro.core.system import LScatterSystem
from repro.faults.carrier import (
    AdcClipper,
    AmbientDropout,
    ImpulsiveNoise,
    NarrowbandJammer,
)
from repro.faults.plan import FaultPlan
from repro.lte.params import LteParams
from repro.stress.stressors import (
    BurstyPdsch,
    PssJammer,
    ReactiveJammer,
    SignallingStorm,
    SweepJammer,
    TagMob,
)

#: Impulse hit rate at intensity 1 (2 % of the samples).
IMPULSE_RATE_AT_FULL = 0.02
#: Tag clock drift at intensity 1 (ppm), far past the chip guard.
DRIFT_PPM_AT_FULL_SEVERITY = 2000.0
#: Carrier bandwidth of every sweep session.
SWEEP_BANDWIDTH_MHZ = 1.4
#: The stress scenarios' stressors, in canonical sweep order.
SCENARIO_STRESSORS = (
    BurstyPdsch,
    SignallingStorm,
    SweepJammer,
    ReactiveJammer,
    PssJammer,
    TagMob,
)


def _single(make):
    """``(intensity, params, seed) -> FaultPlan`` of ``make``'s injector alone.

    Single-injector, so a curve attributes every lost bit to one cause.
    """

    def build(intensity, params, seed):
        return FaultPlan(injectors=(make(intensity, params),), seed=seed)

    return build


def _drift(intensity, params, seed):
    return FaultPlan(
        clock_drift_ppm=intensity * DRIFT_PPM_AT_FULL_SEVERITY, seed=seed
    )


@dataclass(frozen=True)
class Perturbation:
    """One entry of :data:`PERTURBATIONS`."""

    #: ``(intensity, params, seed) -> FaultPlan``; intensity 0 is a no-op.
    build: Callable
    #: Whether goodput must be monotone non-increasing in intensity.
    gated: bool = True


#: Every chaos fault kind and stress scenario, by name.
PERTURBATIONS = {
    "dropout": Perturbation(_single(lambda x, _: AmbientDropout(x))),
    "jammer": Perturbation(_single(lambda x, _: NarrowbandJammer(x))),
    "impulse": Perturbation(
        _single(lambda x, _: ImpulsiveNoise(x * IMPULSE_RATE_AT_FULL))
    ),
    "clipping": Perturbation(_single(lambda x, _: AdcClipper(x))),
    "drift": Perturbation(_drift, gated=False),
    **{cls.name: Perturbation(_single(cls)) for cls in SCENARIO_STRESSORS},
}


def json_float(value):
    """``value`` as a float; NaN (an undefined BER or goodput) is null."""
    value = float(value)
    return None if math.isnan(value) else value


def write_report(report, output):
    """Write a harness report as indented JSON (nothing for no ``output``)."""
    if not output:
        return
    if os.path.dirname(output):
        os.makedirs(os.path.dirname(output), exist_ok=True)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def run_session(config, seed, payload_length, artifacts=False):
    """One tag session of ``config``; ``seed`` drives every simulation stream."""
    system = LScatterSystem(config, rng=seed)
    return system.run(payload_length=payload_length, artifacts=artifacts)


@dataclass(frozen=True)
class SweepConfig:
    """What differs between harnesses: erasure settings, record field names."""

    #: Record keys of the perturbation name and of its intensity.
    name_key: str
    level_key: str
    #: Preamble mis-slice fraction above which a packet's windows are erased.
    erasure_threshold: float
    #: Per-window SNR gate (dB) escalating weak windows to erasures.
    snr_gate_db: float | None = None

    @property
    def params(self):
        """The LteParams the scenario stressors are laid out against."""
        return LteParams.from_bandwidth(SWEEP_BANDWIDTH_MHZ)

    def config(self, smoke, plan=None, erasures=True, **overrides):
        """A genie-reference, model-sync session with ``plan`` attached."""
        kwargs = dict(
            bandwidth_mhz=SWEEP_BANDWIDTH_MHZ,
            n_frames=2 if smoke else 4,
            reference_mode="genie",
            sync_mode="model",
            faults=plan,
            erasure_threshold=self.erasure_threshold if erasures else None,
            window_snr_gate_db=self.snr_gate_db if erasures else None,
        )
        kwargs.update(overrides)
        return SystemConfig(**kwargs)

    def point_record(self, level, report):
        """One sweep point; erased windows are in no BER/goodput figure."""
        return {
            self.level_key: float(level),
            "n_bits": int(report.n_bits),
            "n_errors": int(report.n_errors),
            "ber": json_float(report.ber),
            "goodput_bps": json_float(report.throughput_bps),
            "n_windows": int(report.n_windows),
            "n_lost_windows": int(report.n_lost_windows),
            "n_erased_windows": int(report.n_erased_windows),
            "sync_failed": bool(report.sync_failed),
        }


def noop_contract(settings, plan, smoke, seed, payload_length):
    """Zero-intensity ``plan`` vs no plan, erasures off: IQ and metrics match.

    Returns the verdict and the clean session's report.
    """
    clean, zeroed = [
        run_session(
            settings.config(smoke, plan=p, erasures=False),
            seed,
            payload_length,
            artifacts=True,
        )
        for p in (None, plan)
    ]
    a, b = clean.extras["artifacts"], zeroed.extras["artifacts"]
    iq_identical = bool(
        np.array_equal(a.shifted_rx, b.shifted_rx)
        and np.array_equal(a.direct_rx, b.direct_rx)
    )
    metrics_identical = all(
        getattr(clean, field) == getattr(zeroed, field)
        for field in ("n_bits", "n_errors", "n_windows", "n_lost_windows")
    )
    verdict = {
        "iq_identical": iq_identical,
        "metrics_identical": metrics_identical,
        "passed": iq_identical and metrics_identical,
    }
    return verdict, clean


def sweep(settings, name, levels, smoke, seed, payload_length):
    """``name``'s degradation curve: one session per level, no plan at 0.

    A gated curve's goodput must not rise point to point (``1e-9`` slack);
    placement makes it so by construction, and the harness checks it.
    """
    perturbation = PERTURBATIONS[name]
    points = []
    for level in levels:
        plan = perturbation.build(level, settings.params, seed) if level > 0 else None
        report = run_session(settings.config(smoke, plan=plan), seed, payload_length)
        points.append(settings.point_record(level, report))
    goodputs = [p["goodput_bps"] or 0.0 for p in points]
    monotone = all(
        later <= earlier + 1e-9 for earlier, later in zip(goodputs, goodputs[1:])
    )
    return {
        settings.name_key: name,
        "points": points,
        "monotone_goodput": bool(monotone),
        "monotone_required": perturbation.gated,
    }
