"""Seed-0 outputs of the entry points whose fixed hardware values are constants.

The comparator timing, the sync boost, the harvester curve, the collision
geometry and the traffic-survey knobs are module constants, not
arguments; these pins hold the tables, notes and figures those constants
produce, so a constant that drifts fails here by name.
"""

import hashlib

import pytest

from repro.experiments import run_experiment
from repro.extensions import HarvesterModel
from repro.mac import two_tag_collision

#: sha256 of ``format_table()`` + "\n# " + ``notes`` at seed 0.
TABLE_SHA256 = {
    "fig04": "6d448c4155f64801532563df9cec16109b6d37be9bb3c6076d475e965022f91b",
    "fig16": "28bab2e27569ea907878e0c81a5437a65392dcc179d2bd38dd5de08b78a43e1e",
    "fig21": "2ef293a13658019850b3897cef256d1eaa41dcdc5377002c5e4b950f7a88f168",
    "fig26": "f8af26aaac9590bc3a7c5863af861a33860122178379cf0545a7cce7535dd12d",
    "fig31": "f4c629b8d83b6b4c7c892687d89489345c43af4b47f6b2cbe441ca36838c8519",
    "fig33": "be070144027a03e2f17ac33af86225e5fba1cceeb358ce7ece554c97cbcf78a1",
}

NOTES = {
    "fig31": "37 events; mean 34.4 us, std 4.9 us; fraction in [20, 45] us: "
    "0.97 (paper: ~90% within 30-40 us)",
    "fig33": "at 2 ft: accept(legit)=1.00, reject(imposter)=0.88; paper: "
    "136 sps at 2 ft falling to 5 sps at 40 ft.",
}

#: ``HarvesterModel().report(d)`` at the harvesting benchmark's distances:
#: (incident dBm, harvested W, consumption W).
HARVEST = {
    1: (8.381589643965013, 0.0020476726229002097, 0.00015371248695652173),
    2: (-0.649310225954423, 0.00021843406952065588, 0.00015371248695652173),
    3: (-5.93204799762486, 5.43438005409621e-05, 0.00015371248695652173),
    5: (-12.587510486115548, 7.5213022374847195e-06, 0.00015371248695652173),
    10: (-21.618410356034985, 0.0, 0.00015371248695652173),
    20: (-30.649310225954423, 0.0, 0.00015371248695652173),
}

#: ``two_tag_collision(adv, seed=3).strong_tag_ber`` over 16 704 bits.
COLLISION_BER = {
    0: 0.25077825670498083,
    6: 0.0008381226053639847,
    12: 0.0005387931034482759,
}


@pytest.mark.parametrize("experiment_id", sorted(TABLE_SHA256))
def test_experiment_table_is_pinned(experiment_id):
    result = run_experiment(experiment_id)
    text = result.format_table() + "\n# " + result.notes
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == TABLE_SHA256[experiment_id], text
    if experiment_id in NOTES:
        assert result.notes == NOTES[experiment_id]


@pytest.mark.parametrize("distance_ft", sorted(HARVEST))
def test_harvester_report_is_pinned(distance_ft):
    report = HarvesterModel().report(distance_ft)
    got = (report.incident_dbm, report.harvested_w, report.consumption_w)
    assert got == pytest.approx(HARVEST[distance_ft], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("advantage_db", sorted(COLLISION_BER))
def test_two_tag_collision_is_pinned(advantage_db):
    outcome = two_tag_collision(advantage_db, seed=3)
    assert outcome.n_bits == 16704
    assert outcome.strong_tag_ber == COLLISION_BER[advantage_db]
