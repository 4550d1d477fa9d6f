"""Continuous authentication over an LScatter link (paper §5, Fig. 33).

A wearable EMG pad samples the user's muscle activity; every measurement
window is framed and backscattered to a laptop, which compares the
window's features against the enrolled template and keeps (or revokes)
the session.  The link layer is the calibrated LScatter model: each
update survives only if the tag's sync circuit saw the PSS *and* every
bit of the update packet demodulated correctly — which is what turns the
paper's Fig. 33b curve (136 updates/s at 2 ft falling to ~5 at 40 ft)
into a pure link-budget consequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from repro.apps.emg import EmgGenerator, emg_features
from repro.core.link_budget import LScatterLinkModel, TAG_SENSITIVITY_DBM
from repro.channel.link import LinkBudget
from repro.utils.rng import make_rng

#: Attempted update rate: one EMG feature window every ~7 ms.
ATTEMPT_RATE_SPS = 136.0

#: Bits per update packet: 4 features x 16 bits + header/CRC.
UPDATE_PACKET_BITS = 96

#: Shadowing spread for a body-worn tag (movement adds variance beyond
#: the static-venue value).
BODY_SHADOWING_DB = 5.0

#: The wearable's link: 3 ft to the laptop, on a 20 MHz carrier in a
#: smart home.
TAG_TO_UE_FT = 3.0
BANDWIDTH_MHZ = 20.0
VENUE = "smart_home"

#: Enrolment: 200 EMG windows of 250 ms each.  Streaming uses the same
#: window length.
ENROLL_WINDOWS = 200
WINDOW_S = 0.25

#: A window is accepted when its normalised feature distance to the
#: template falls below this.
ACCEPT_THRESHOLD = 3.5


@dataclass
class AuthReport:
    """Outcome of one continuous-authentication run."""

    update_rate_sps: float
    attempted_sps: float
    accept_rate_legit: float
    reject_rate_imposter: float
    mean_updates_delivered: float = 0.0
    extras: dict = field(default_factory=dict)


class ContinuousAuthApp:
    """Wearable EMG authentication over a simulated LScatter link."""

    def __init__(self, enb_to_tag_ft=2.0, rng=None):
        self.enb_to_tag_ft = float(enb_to_tag_ft)
        self.model = LScatterLinkModel(BANDWIDTH_MHZ, LinkBudget(venue=VENUE))
        self.rng = make_rng(rng)

    # -- link layer ---------------------------------------------------------------

    def _sync_availability(self):
        """Per-attempt probability the tag is synchronised (body-worn)."""
        margin = (
            self.model.tag_incident_dbm(self.enb_to_tag_ft) - TAG_SENSITIVITY_DBM
        )
        return float(norm.cdf(margin / BODY_SHADOWING_DB))

    def update_success_probability(self):
        """P(one update delivered): sync available and packet error-free."""
        ber = self.model.ber(self.enb_to_tag_ft, TAG_TO_UE_FT)
        packet_ok = (1.0 - ber) ** UPDATE_PACKET_BITS
        return self._sync_availability() * packet_ok

    def update_rate_sps(self):
        """Expected delivered updates per second (paper Fig. 33b)."""
        return ATTEMPT_RATE_SPS * self.update_success_probability()

    # -- authentication -------------------------------------------------------------

    @staticmethod
    def enroll(user_id, rng=None):
        """Build a user template: per-feature mean and spread."""
        generator = EmgGenerator(user_id, rng=rng)
        window_n = int(WINDOW_S * 1000)
        signal = generator.generate(ENROLL_WINDOWS * WINDOW_S)
        features = np.array(
            [
                emg_features(signal[i * window_n : (i + 1) * window_n])
                for i in range(ENROLL_WINDOWS)
            ]
        )
        return features.mean(axis=0), features.std(axis=0) + 1e-9

    @staticmethod
    def authenticate(window, template):
        """Accept if the window's features sit near the template."""
        mean, std = template
        distance = np.linalg.norm((emg_features(window) - mean) / std)
        return bool(distance < ACCEPT_THRESHOLD)

    def run(self, legit_user=0, imposter_user=1, duration_s=20.0):
        """Stream both users' EMG over the link; returns an AuthReport."""
        template = self.enroll(legit_user, rng=self.rng)
        window_n = int(WINDOW_S * 1000)
        n_windows = int(duration_s / WINDOW_S)
        success_p = self.update_success_probability()

        outcomes = {}
        for label, user in (("legit", legit_user), ("imposter", imposter_user)):
            generator = EmgGenerator(user, rng=self.rng)
            signal = generator.generate(duration_s)
            accepted = 0
            delivered = 0
            for w in range(n_windows):
                if self.rng.random() > success_p:
                    continue  # update lost on the link
                delivered += 1
                window = signal[w * window_n : (w + 1) * window_n]
                if self.authenticate(window, template):
                    accepted += 1
            outcomes[label] = (accepted, delivered)

        legit_acc, legit_del = outcomes["legit"]
        imp_acc, imp_del = outcomes["imposter"]
        return AuthReport(
            update_rate_sps=self.update_rate_sps(),
            attempted_sps=ATTEMPT_RATE_SPS,
            accept_rate_legit=legit_acc / max(legit_del, 1),
            reject_rate_imposter=1.0 - imp_acc / max(imp_del, 1),
            mean_updates_delivered=(legit_del + imp_del) / 2.0,
        )
