"""Extension bench: multi-tag access over one ambient LTE carrier."""

from repro.fleet.scheduler import FleetScheduler
from repro.mac import SlottedAlohaScheme, TdmaScheme, two_tag_collision
from benchmarks.conftest import run_once


def _rate(scheme, powers, seed):
    """Successful packets per slot over 4000 slots of ``scheme``."""
    schedule = FleetScheduler(scheme, rng=seed).assign(sorted(powers), 4000, powers)
    return schedule.airtime_utilisation


def _sweep():
    out = {}
    for n in (2, 4, 8, 16):
        powers = {f"tag{i}": -40.0 - 2.0 * i for i in range(n)}
        out[n] = (
            _rate(TdmaScheme(), powers, n),
            _rate(SlottedAlohaScheme(), powers, n),
        )
    capture = {adv: two_tag_collision(adv, seed=3).strong_tag_ber for adv in (0, 6, 12)}
    return out, capture


def test_mac_scaling(benchmark):
    rates, capture = run_once(benchmark, _sweep)
    print("\n# n_tags  TDMA agg  ALOHA agg")
    for n, (tdma, aloha) in rates.items():
        print(f"#  {n:4d}    {tdma:.3f}     {aloha:.3f}")
    print("# IQ capture effect:", {k: round(v, 4) for k, v in capture.items()})
    # TDMA keeps the channel fully used at any population.
    assert all(tdma == 1.0 for tdma, _ in rates.values())
    # ALOHA pays the classic contention tax but benefits from capture.
    assert all(0.3 < aloha < 0.75 for _, aloha in rates.values())
    # IQ: equal-power collision destroys; 12 dB advantage captures.
    assert capture[0] > 0.1
    assert capture[12] < 5e-3
