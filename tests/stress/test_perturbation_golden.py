"""Every perturbation's full-intensity smoke session, pinned.

Each entry of :data:`~repro.stress.perturbations.PERTURBATIONS` runs the
session its harness sweeps (``CHAOS_SWEEP`` for the chaos kinds,
``STRESS_SWEEP`` for the stress scenarios; smoke, payload 6000) at
intensity 1.0 and seed 0.  The goldens pin the report counts and the
received backscatter band, so a change to an injector's random stream,
its activation or the order of the fault chain shows here even where it
moves no count.
"""

import hashlib

import numpy as np
import pytest

from repro.faults.chaos import CHAOS_KINDS, CHAOS_SWEEP
from repro.stress.perturbations import PERTURBATIONS, run_session
from repro.stress.suite import STRESS_SWEEP

#: Per perturbation: (n_bits, n_errors, n_windows, n_lost_windows,
#: n_erased_windows), then the sha256 of ``artifacts.shifted_rx``.
GOLDEN = {
    "dropout": (
        (6480, 2120, 174, 0, 84),
        "954cc446e113e8c06a9f7cf36b5e8c19ea0b869a6db151d9072a168c62806bf3",
    ),
    "jammer": (
        (11664, 3196, 174, 0, 12),
        "f002d4d6a7da5ac3ee4de3010d63204d1863366d1a8dcc5a130324662606625e",
    ),
    "impulse": (
        (8928, 433, 174, 0, 50),
        "27ed6bb1c7b0b86c70b20275b54981af9701acc6caf363f1ab4e5a137ef800da",
    ),
    "clipping": (
        (12528, 14, 174, 0, 0),
        "247efe0095f2c3229a5f24c3e1896c8994e0c12e3db06ad60cd98aeb724593f3",
    ),
    "drift": (
        (8784, 287, 174, 0, 52),
        "95f589482ed07cd49dbf4fc8ad0f299e5f7480329863a223ee3f945b65e78427",
    ),
    "bursty-pdsch": (
        (7344, 311, 174, 0, 72),
        "26691e7f7cf46e4c9ab65a66e99de7ff765b67d92f7069db89c4a71e72f5fd34",
    ),
    "signalling-storm": (
        (8712, 352, 174, 0, 53),
        "129df06b94362fc254c39351e2a9fda1cb8c4408bf7cf0ae3cf278b4ae944e25",
    ),
    "sweep-jammer": (
        (7128, 459, 174, 0, 75),
        "95e4d2b95be1566b4ea11c3e031dd7d17da25056a1d95455bc428343c869ad3c",
    ),
    "reactive-jammer": (
        (4680, 1651, 174, 0, 109),
        "6d14c7b4e01eeaa3e9ea69728bfcb1a27c4721ae2e086a1bc31ee88c193afa20",
    ),
    "pss-jammer": (
        (12528, 4, 174, 0, 0),
        "0d74ba98614d674e5848080cfab7cd9f461013cd7a1f8955893abff10b7b36bf",
    ),
    "tag-mob": (
        (7272, 1077, 174, 0, 73),
        "16974e34ff92cf77ae7c5b06afa228f06634b254ad757129d1ec211da29929a9",
    ),
}


def test_golden_covers_every_perturbation():
    assert set(GOLDEN) == set(PERTURBATIONS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_full_intensity_session_unchanged(name):
    settings = CHAOS_SWEEP if name in CHAOS_KINDS else STRESS_SWEEP
    plan = PERTURBATIONS[name].build(1.0, settings.params, 0)
    report = run_session(
        settings.config(True, plan=plan), 0, 6000, artifacts=True
    )
    fields, shifted_sha = GOLDEN[name]
    assert (
        report.n_bits,
        report.n_errors,
        report.n_windows,
        report.n_lost_windows,
        report.n_erased_windows,
    ) == fields
    shifted = np.ascontiguousarray(report.extras["artifacts"].shifted_rx)
    assert hashlib.sha256(shifted.tobytes()).hexdigest() == shifted_sha
