"""Fleet deployment-model tests."""

import pytest

from repro.fleet import Deployment, TagPlacement


def test_ring_layout_deterministic():
    a = Deployment.ring(4)
    b = Deployment.ring(4)
    assert a.names == ["tag00", "tag01", "tag02", "tag03"]
    assert [t.enb_to_tag_ft for t in a.tags] == [t.enb_to_tag_ft for t in b.tags]


def test_config_for_carries_geometry_and_shared_knobs():
    deployment = Deployment.ring(
        2, bandwidth_mhz=1.4, n_frames=3, venue="shopping_mall"
    )
    config = deployment.config_for(deployment.tags[1])
    assert config.bandwidth_mhz == 1.4
    assert config.n_frames == 3
    assert config.venue == "shopping_mall"
    assert config.enb_to_tag_ft == deployment.tags[1].enb_to_tag_ft
    assert config.reference_mode == "genie"


def test_tag_powers_monotone_in_distance():
    deployment = Deployment.ring(4)
    powers = deployment.tag_powers_dbm()
    ordered = [powers[name] for name in deployment.names]
    assert ordered == sorted(ordered, reverse=True)


def test_n_half_frames():
    assert Deployment.ring(1, n_frames=4).n_half_frames == 8


def test_invalid_deployments_rejected():
    with pytest.raises(ValueError):
        Deployment(tags=[])
    with pytest.raises(ValueError):
        Deployment(
            tags=[
                TagPlacement("dup", 1.0, 1.0),
                TagPlacement("dup", 2.0, 2.0),
            ]
        )
    with pytest.raises(ValueError):
        TagPlacement("bad", -1.0, 1.0)
    # Fleet-wide fields meet SystemConfig's checks at construction.
    for field, value in {
        "n_frames": 0,
        "venue": "nowhere",
        "bandwidth_mhz": 7,
        "reference_mode": "x",
        "substrate": "nope",
    }.items():
        with pytest.raises(ValueError, match=field):
            Deployment.ring(2, **{field: value})


@pytest.mark.parametrize("n_tags", [2.5, float("nan"), "3"])
def test_ring_rejects_bad_tag_counts_naming_the_field(n_tags):
    with pytest.raises(ValueError, match="^n_tags must be a whole number >= 1"):
        Deployment.ring(n_tags)


def test_placement_errors_name_the_tag_and_field():
    with pytest.raises(ValueError, match=r"tag 'kitchen': enb_to_tag_ft"):
        TagPlacement("kitchen", -3.0, 1.0)
    with pytest.raises(ValueError, match="hop lengths in feet, not coordinates"):
        TagPlacement("kitchen", 0.0, 1.0)
    with pytest.raises(ValueError, match=r"tag 'door': tag_to_ue_ft"):
        TagPlacement("door", 1.0, -1.0)


def test_duplicate_name_error_lists_offenders():
    with pytest.raises(ValueError, match=r"must be unique; duplicated: \['dup'\]"):
        Deployment(
            tags=[
                TagPlacement("dup", 1.0, 1.0),
                TagPlacement("dup", 2.0, 2.0),
            ]
        )


def test_duplicate_position_error_names_both_tags():
    with pytest.raises(
        ValueError, match=r"'a' and 'b' occupy the same position"
    ):
        Deployment(
            tags=[
                TagPlacement("a", 10.0, 5.0),
                TagPlacement("b", 10.0, 5.0),
            ]
        )
    # Same eNodeB distance but different UE hop is a distinct position.
    ok = Deployment(
        tags=[
            TagPlacement("a", 10.0, 5.0),
            TagPlacement("b", 10.0, 6.0),
        ]
    )
    assert ok.names == ["a", "b"]
