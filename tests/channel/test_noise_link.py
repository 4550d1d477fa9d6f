"""Noise and link-budget tests."""

import threading

import numpy as np
import pytest

from repro.channel.link import BackscatterLink, DirectLink, LinkBudget
from repro.channel.noise import NoiseDraws, add_thermal_noise, noise_std_for_bandwidth
from repro.utils.rng import make_rng
from repro.utils.units import dbm_to_watts


def test_noise_std_matches_ktb():
    from repro.utils.units import thermal_noise_dbm

    std = noise_std_for_bandwidth(20e6, noise_figure_db=6.0)
    power_mw = 2 * std**2
    expected_mw = dbm_to_watts(thermal_noise_dbm(20e6, 6.0)) * 1e3
    assert power_mw == pytest.approx(expected_mw, rel=1e-6)


def test_add_thermal_noise_power():
    from repro.utils.units import thermal_noise_dbm

    rng = make_rng(0)
    silent = np.zeros(200_000, dtype=complex)
    noisy = add_thermal_noise(silent, 1e6, 0.0, rng)
    measured_mw = np.mean(np.abs(noisy) ** 2)
    expected_mw = dbm_to_watts(thermal_noise_dbm(1e6, 0.0)) * 1e3
    assert measured_mw == pytest.approx(expected_mw, rel=0.05)


def _two_draw_noise(samples, bandwidth_hz, noise_figure_db, rng):
    """Oracle: the expression ``add_thermal_noise`` computes with one draw."""
    n = len(samples)
    std = noise_std_for_bandwidth(bandwidth_hz, noise_figure_db)
    return samples + std * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("n", [0, 1, 1000, 307_200])
def test_add_thermal_noise_matches_two_draw_oracle(n):
    """Same bits and same generator state as two length-n draws.

    307 200 samples (4.9 MB) is far above numpy's 256 KiB temporary
    elision size, where the oracle's own temporaries are reused in place.
    """
    samples = make_rng(1).standard_normal(n) + 1j * make_rng(2).standard_normal(n)
    oracle_rng, rng = make_rng(7), make_rng(7)
    expected = _two_draw_noise(samples, 15.36e6, 6.0, oracle_rng)
    noisy = add_thermal_noise(samples, 15.36e6, 6.0, rng)
    np.testing.assert_array_equal(noisy.view(np.uint64), expected.view(np.uint64))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_add_thermal_noise_never_writes_its_input():
    samples = make_rng(3).standard_normal(1000) + 1j * make_rng(4).standard_normal(1000)
    before = samples.copy()
    noisy = add_thermal_noise(samples, 1e6, 6.0, make_rng(5))
    np.testing.assert_array_equal(samples.view(np.uint64), before.view(np.uint64))
    assert not np.shares_memory(noisy, samples)
    # A read-only input (the fleet's shared ambient is one) works too.
    samples.setflags(write=False)
    again = add_thermal_noise(samples, 1e6, 6.0, make_rng(5))
    np.testing.assert_array_equal(again.view(np.uint64), noisy.view(np.uint64))


def test_draws_made_ahead_equal_inline_draws():
    """Same samples, same generator end state, an unread draw included."""
    n = 10_000
    samples = make_rng(1).standard_normal(n) + 1j * make_rng(2).standard_normal(n)
    inline_rng, ahead_rng = make_rng(9), make_rng(9)
    first = add_thermal_noise(samples, 1e6, 6.0, inline_rng)
    inline_rng.standard_normal((2, n))  # the draw nobody adds
    third = add_thermal_noise(samples, 1e6, 6.0, inline_rng)
    with NoiseDraws(ahead_rng, n) as draws:
        for name in ("first", "unread", "third"):
            draws.submit(name)
        ahead_third = add_thermal_noise(samples, 1e6, 6.0, draw=draws.take("third"))
        ahead_first = add_thermal_noise(samples, 1e6, 6.0, draw=draws.take("first"))
    np.testing.assert_array_equal(ahead_first.view(np.uint64), first.view(np.uint64))
    np.testing.assert_array_equal(ahead_third.view(np.uint64), third.view(np.uint64))
    assert ahead_rng.bit_generator.state == inline_rng.bit_generator.state


def test_draw_made_ahead_must_fit_the_samples():
    with NoiseDraws(make_rng(0), 100) as draws:
        draws.submit("short")
        with pytest.raises(ValueError, match="does not fit 99 samples"):
            add_thermal_noise(np.zeros(99, dtype=complex), 1e6, draw=draws.take("short"))


def test_noise_draws_close_joins_the_worker():
    before = set(threading.enumerate())
    draws = NoiseDraws(make_rng(0), 1000)
    assert set(threading.enumerate()) == before  # no thread before a submit
    draws.submit("a")
    draws.submit("b")
    future = draws.take("a")
    draws.close()
    assert future.done()
    assert set(threading.enumerate()) == before
    with pytest.raises(KeyError):
        draws.take("b")  # never taken, so dropped at close


def test_noise_draws_close_reads_untaken_draws():
    """A failed draw that nobody took still raises at close."""

    class Broken:
        def standard_normal(self, shape):
            raise MemoryError("injected")

    draws = NoiseDraws(Broken(), 10)
    draws.submit("unread")
    with pytest.raises(MemoryError, match="injected"):
        draws.close()


def test_budget_cascade_composition():
    budget = LinkBudget(venue="free_space", system_gain_db=0.0, tag_loss_db=8.0)
    d1, d2 = 10.0, 20.0
    cascade = budget.backscatter_rx_dbm(d1, d2)
    loss1 = budget.pathloss.loss_db_feet(d1, budget.carrier_hz)
    loss2 = budget.pathloss.loss_db_feet(d2, budget.carrier_hz)
    assert cascade == pytest.approx(budget.tx_power_dbm - loss1 - loss2 - 8.0)


def test_backscatter_weaker_than_direct():
    budget = LinkBudget(venue="smart_home")
    assert budget.backscatter_rx_dbm(10, 10) < budget.direct_rx_dbm(20)


def test_snr_decreases_with_distance():
    budget = LinkBudget(venue="shopping_mall")
    near = budget.backscatter_snr_db(5, 10, 20e6)
    far = budget.backscatter_snr_db(5, 100, 20e6)
    assert near > far + 20


def test_unknown_venue_rejected():
    with pytest.raises(ValueError):
        LinkBudget(venue="moon")


@pytest.mark.parametrize(
    "field, value",
    [
        ("tx_power_dbm", float("nan")),
        ("tx_power_dbm", float("inf")),
        ("carrier_hz", -1.0),
        ("carrier_hz", 0.0),
        ("carrier_hz", float("nan")),
        ("system_gain_db", float("inf")),
        ("tag_loss_db", -float("inf")),
        ("noise_figure_db", float("nan")),
        ("noise_figure_db", None),
    ],
)
def test_link_budget_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        LinkBudget(**{field: value})


def test_direct_link_scales_waveform():
    budget = LinkBudget(venue="free_space", system_gain_db=0.0)
    link = DirectLink(budget=budget, distance_ft=10.0)
    x = np.ones(1000, dtype=complex)
    out = link.apply(x)
    measured_dbm = 10 * np.log10(np.mean(np.abs(out) ** 2))
    assert measured_dbm == pytest.approx(budget.direct_rx_dbm(10.0), abs=0.01)


def test_backscatter_link_end_to_end_power():
    budget = LinkBudget(venue="free_space", system_gain_db=4.0)
    link = BackscatterLink(budget=budget, enb_to_tag_ft=5.0, tag_to_ue_ft=15.0)
    x = np.ones(1000, dtype=complex)
    at_tag = link.apply_to_tag(x)
    at_ue = link.apply_from_tag(at_tag)
    measured_dbm = 10 * np.log10(np.mean(np.abs(at_ue) ** 2))
    assert measured_dbm == pytest.approx(
        budget.backscatter_rx_dbm(5.0, 15.0), abs=0.01
    )


def test_tag_incident_power_uses_half_gain():
    budget = LinkBudget(venue="free_space", system_gain_db=10.0)
    link = BackscatterLink(budget=budget, enb_to_tag_ft=10.0, tag_to_ue_ft=10.0)
    loss = budget.pathloss.loss_db_feet(10.0, budget.carrier_hz)
    assert link.tag_rx_dbm() == pytest.approx(budget.tx_power_dbm - loss + 5.0)
