"""Fleet geometry: many tags around one eNodeB and its UEs.

A :class:`Deployment` pins down everything the fleet shares — venue, LTE
bandwidth, capture length, substrate — plus one
:class:`TagPlacement` per tag (its two hop distances).
From a placement it derives the per-tag :class:`~repro.core.config.SystemConfig`
that the per-tag simulation stage consumes, and from the link budget the
per-tag received backscatter powers that drive capture resolution in the
random-access scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.utils.validation import require_whole

#: :meth:`Deployment.ring` geometry (feet): tag ``i`` of ``n`` sits
#: ``RING_ENB_TO_TAG_FT + RING_SPREAD_FT * i / n`` from the eNodeB and
#: ``RING_TAG_TO_UE_FT`` from its UE.
RING_ENB_TO_TAG_FT = 4.0
RING_SPREAD_FT = 2.0
RING_TAG_TO_UE_FT = 5.0

#: The eNodeB's transmit power (dBm), the same for every fleet.
TX_POWER_DBM = 10.0


@dataclass(frozen=True)
class TagPlacement:
    """One tag's position in the deployment."""

    name: str
    enb_to_tag_ft: float
    tag_to_ue_ft: float

    def __post_init__(self):
        if self.enb_to_tag_ft <= 0:
            raise ValueError(
                f"tag {self.name!r}: enb_to_tag_ft must be positive, got "
                f"{self.enb_to_tag_ft}; distances are hop lengths in feet, "
                "not coordinates"
            )
        if self.tag_to_ue_ft <= 0:
            raise ValueError(
                f"tag {self.name!r}: tag_to_ue_ft must be positive, got "
                f"{self.tag_to_ue_ft}; distances are hop lengths in feet, "
                "not coordinates"
            )


@dataclass
class Deployment:
    """N tags riding one ambient LTE cell."""

    tags: list = field(default_factory=list)
    venue: str = "smart_home"
    bandwidth_mhz: float = 1.4
    n_frames: int = 4
    #: Per-tag simulation knobs shared by the whole fleet.
    reference_mode: str = "genie"
    sync_mode: str = "model"
    #: Ambient-substrate mode every tag/receiver pair runs (see
    #: :mod:`repro.substrates`); the whole fleet shares one mode because
    #: the ambient capture is shared.
    substrate: str = "chip"

    def __post_init__(self):
        if not self.tags:
            raise ValueError("a deployment needs at least one tag")
        names = [tag.name for tag in self.tags]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"tag names must be unique; duplicated: {dupes}"
            )
        positions = {}
        for tag in self.tags:
            pos = (tag.enb_to_tag_ft, tag.tag_to_ue_ft)
            if pos in positions:
                raise ValueError(
                    f"tags {positions[pos]!r} and {tag.name!r} occupy the "
                    f"same position (enb_to_tag_ft={tag.enb_to_tag_ft}, "
                    f"tag_to_ue_ft={tag.tag_to_ue_ft}); two tags cannot "
                    "share one antenna position — offset one of them"
                )
            positions[pos] = tag.name
        # Every fleet-wide field meets the per-tag config's checks here,
        # so a bad venue or bandwidth fails at construction, naming it.
        for tag in self.tags:
            self.config_for(tag)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def ring(cls, n_tags, **kwargs):
        """Tags spread deterministically on a ring around the eNodeB.

        Tag ``i`` sits at ``RING_ENB_TO_TAG_FT + RING_SPREAD_FT * i / n``
        from the eNodeB and ``RING_TAG_TO_UE_FT`` from its UE — close
        enough in power that random access exhibits real collisions (no
        universal capture), distinct enough that results are per-tag
        distinguishable.
        """
        require_whole("n_tags", n_tags, minimum=1)
        tags = [
            TagPlacement(
                name=f"tag{i:02d}",
                enb_to_tag_ft=RING_ENB_TO_TAG_FT + RING_SPREAD_FT * i / n_tags,
                tag_to_ue_ft=RING_TAG_TO_UE_FT,
            )
            for i in range(int(n_tags))
        ]
        return cls(tags=tags, **kwargs)

    # -- derived views ----------------------------------------------------------

    @property
    def n_tags(self):
        return len(self.tags)

    @property
    def names(self):
        return [tag.name for tag in self.tags]

    @property
    def n_half_frames(self):
        """MAC scheduling slots in one capture (2 half-frames per frame)."""
        return 2 * int(self.n_frames)

    def base_config(self):
        """The tag-independent :class:`SystemConfig` (first tag's geometry).

        The ambient stage only depends on bandwidth/cell/n_frames, so any
        geometry works; using a real placement keeps the config valid.
        """
        return self.config_for(self.tags[0])

    def config_for(self, placement):
        """Per-tag :class:`SystemConfig` for the simulation stage."""
        return SystemConfig(
            bandwidth_mhz=self.bandwidth_mhz,
            venue=self.venue,
            enb_to_tag_ft=placement.enb_to_tag_ft,
            tag_to_ue_ft=placement.tag_to_ue_ft,
            tx_power_dbm=TX_POWER_DBM,
            n_frames=self.n_frames,
            reference_mode=self.reference_mode,
            sync_mode=self.sync_mode,
            substrate=self.substrate,
        )

    def tag_powers_dbm(self):
        """Mean received backscatter power per tag at its UE (no shadowing).

        Deterministic — the scheduler uses it for capture resolution, so it
        must not depend on the per-tag fading draws.
        """
        powers = {}
        for tag in self.tags:
            budget = self.config_for(tag).budget()
            powers[tag.name] = budget.backscatter_rx_dbm(
                tag.enb_to_tag_ft, tag.tag_to_ue_ft
            )
        return powers

