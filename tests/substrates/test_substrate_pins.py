"""sha256 pins of every substrate's tag schedule and receiver output.

The five modes share one half-frame walk and one symbol-cutting loop;
these digests hold what each mode lays and decides at 1.4 and 3 MHz, so
a change to the shared parts shows up here by mode and bandwidth.  The
schedule grid covers timing errors either side of the half-frame edge,
a MAC grant, tag clock drift and a payload that runs out; the receiver
sessions cover a clean capture, an ambient dropout and two captures cut
short, whose last symbols run past their end: one cut 3 000 samples
early, one inside the last half-frame's PSS.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from repro.core import LScatterSystem, SystemConfig
from repro.faults.carrier import AmbientDropout
from repro.faults.plan import FaultPlan
from repro.lte.pss import PSS_SYMBOL_IN_SLOT

MODES = ("chip", "crs-ook", "crs-fsk", "coded-pilot", "srs-uplink")
BANDWIDTHS = (1.4, 3.0)

#: -3000 clips the first SRS occasion of the first 1.4 MHz half-frame.
TIMING_ERRORS = (-3000, -40, 0, 25)
OWNED = (None, (0, 3))
DRIFTS = (0.0, 2.5)
#: A payload longer than any mode's capacity, and one that runs out.
PAYLOAD_LENGTHS = (60000, 50)

#: Samples the short session cuts from the end of both bands.
CUT_SAMPLES = 3000
SESSIONS = ("clean", "dropout", "short", "sounding")

#: sha256 over the schedule grid, per (mode, bandwidth).
SCHEDULE_SHA256 = {
    ('chip', 1.4): '984e21d022a04b67587356081c30061a9cfa7eee27b9fbeb2859ae50bec934a8',
    ('chip', 3.0): 'f64a8c3c6d336d2f3f86632aab28d5f6edba5a5f8ecc59064b904a6cd629b011',
    ('crs-ook', 1.4): '27f11be3f9e647b60b333e35f6417f66f3a3dd7bb14be342f6beaf3c0b29ba56',
    ('crs-ook', 3.0): 'f0f8b9ed04550b50bb71aa2bbd359e1f99ad37e11f2a2457287c210d5900df45',
    ('crs-fsk', 1.4): '8c39ebe04021e114fd872f9c238624020377c709cfad0053cd4260d7817b9f40',
    ('crs-fsk', 3.0): '423bbc8e702ae2a4f2d6b910d30392f91d435d9e2f761494d14202e90e4246b9',
    ('coded-pilot', 1.4): '8755248a17c43a75513cd0ea3c0da44e9e970785bbc1305bf30ca1f1b476b50a',
    ('coded-pilot', 3.0): '593401faab5b5bf5916a12f9343f1cb1653e7a7342ed825f14da1c7086802472',
    ('srs-uplink', 1.4): '1745d64d4c02d6515057895a416d78abe6af3ea09fadbf2642808e4d776c0d1e',
    ('srs-uplink', 3.0): '30340dd433f29f423e2d5b962527f1fcd262eec83cb292225b420eb785137108',
}

#: sha256 of the demod bits, soft values, starts and erasure flags.
RECEIVER_SHA256 = {
    ('chip', 1.4, 'clean'): '91371bdeffe56991a10c0dace2f54a392befc2009a2ca11d3b5ddb721f4793dc',
    ('chip', 1.4, 'dropout'): '6cfa74d114c17197e3b5c7ff4758f37793e0ff18df02369fcee3ebc2b231917a',
    ('chip', 1.4, 'short'): '2f0cd0d663def6200d03e0f25cf462aef3b0bc861f507d321cf5e390862ce577',
    ('chip', 1.4, 'sounding'): 'cec6176182518b5b3addb2f3f356e17711d677fb252ee6af785c18f157637d69',
    ('chip', 3.0, 'clean'): 'e1099e2479b783f3df7d9ea4c19416a36b32fa7ed7a54eb28dc3dd05873985a5',
    ('chip', 3.0, 'dropout'): '759685dd521410870848bb7302caec726823409e3db2aa9947166c17dca80572',
    ('chip', 3.0, 'short'): 'b1c098d69fd2a5fcc5d0a5e39227b60abefc6206a5888f09bee0983f10867f11',
    ('chip', 3.0, 'sounding'): '4a8dc65b5bc2a05c19dcaf92a973114a89ae98d7c8abc7de2b39dae37fea806c',
    ('crs-ook', 1.4, 'clean'): '04b6b9df294b1040e0bee423fdf87457fcaa44bf4ac8d8984a72a55d8a5fd798',
    ('crs-ook', 1.4, 'dropout'): 'c5c850381620522f60c9367c5ad599d678039a78670f8ee574098840535082e5',
    ('crs-ook', 1.4, 'short'): '035a75e0a9b01f6f4028fc3d08b4f2c3e3b41fdf4b63a8829acc37880d4052e0',
    ('crs-ook', 1.4, 'sounding'): '324662dfe2a897bbe91c8d6839b35184a9c1dc67725383e94fd5418aa60b1f6e',
    ('crs-ook', 3.0, 'clean'): 'ec6ccf721c57460ead5f7def1489c80133e8b7c4342507002fb543672642940e',
    ('crs-ook', 3.0, 'dropout'): '09a53b62769ce15a76e516e3833762445a4ad7be7e09be68a765df6bba199edd',
    ('crs-ook', 3.0, 'short'): '9e795e177bc9dc5a8282b07c6667578e95ebf6e8af149bddf1d19c916b333da7',
    ('crs-ook', 3.0, 'sounding'): '878ba922e8aebbcff3fb9203d400ca178766f16218e431a8c144e7ba3b2b7d81',
    ('crs-fsk', 1.4, 'clean'): 'e7105ce4e054c39fbf164c4531d3b94915815f78802e2ff0e7873546b590f2ad',
    ('crs-fsk', 1.4, 'dropout'): 'b3f6c3c60ace59ca6abe700c6830f03c4150059a8e7a02cc5e2ac61b7aed7d17',
    ('crs-fsk', 1.4, 'short'): '0f128d1b8a768e7d62010c9acefb2093d2359df97c9bdb14ab9a17af3c1759c0',
    ('crs-fsk', 1.4, 'sounding'): '8f0b76c4c7010e53d7ac97471056e29ea4c3963b77013e7693e665d2c32bcb04',
    ('crs-fsk', 3.0, 'clean'): '814ec587ca1d14cb66a56f226a780b896f47186ac7c59ee5e0f475f867b8860b',
    ('crs-fsk', 3.0, 'dropout'): '17c1c5b99a0d4d52390abae32d84ec6a90eff95f0eb6b101807b220bb2f897a8',
    ('crs-fsk', 3.0, 'short'): '22e2bb3de5b14999832868c6ce696a9d405b9b4c1c6f185dd4305296b632d7da',
    ('crs-fsk', 3.0, 'sounding'): 'c0576c9da2e1de23942e2bde3b26d58560560b5d3c6747cbb198b7276d23c651',
    ('coded-pilot', 1.4, 'clean'): '2d2fdadffd91c17d62bdfbd97a432a0e6cb1ec5a930ffcf96eaf9d9cd2399b87',
    ('coded-pilot', 1.4, 'dropout'): '780bf7567c6c343c26d38f9931f0e335022bd4e320c964a0c51bff732f49bf10',
    ('coded-pilot', 1.4, 'short'): 'b837af7e731c40d2c7ae32fba5ea0701ecd84fb8c1e084b3553f70ff054c52ca',
    ('coded-pilot', 1.4, 'sounding'): '42ae26e61b342fa173a3c7fff2f978559973d9712dff6ba4f51c1b9dd7fce1c0',
    ('coded-pilot', 3.0, 'clean'): '4e27ea88e08b0226d22a4c1f6cda6c239d676305f26119393399b6d6ffb39466',
    ('coded-pilot', 3.0, 'dropout'): '2fef6aed21cf7ce362165493bf6e16a0ebcd4a2ea0bebfcc53a54e5d69c504ff',
    ('coded-pilot', 3.0, 'short'): '74270011f3fd830459ae5632418222d9219cc44ccf9e7266b94feaacd6a6ceda',
    ('coded-pilot', 3.0, 'sounding'): 'aaa3dd5107e6656d9e12915a65e0bda6c8dd186d8a5ae4a5cbf881e7e68be738',
    ('srs-uplink', 1.4, 'clean'): '9c475bb257da1d35d55072678039c6daa77e2280477099ad34ce2ef94111fe66',
    ('srs-uplink', 1.4, 'dropout'): 'b25803da29b339e6885fa70dccb00bf42c8970ecf2f79f0ddbd41aea9a9cf63d',
    ('srs-uplink', 1.4, 'short'): '7ea4b418c86e15a0efd9d2be6238a1e7053d23accf6c62e255509baf69fa1de1',
    ('srs-uplink', 1.4, 'sounding'): 'd14b253ddfe401d1bc4971c376eadb110623a66f4d59e1d9d90811c9d67043d9',
    ('srs-uplink', 3.0, 'clean'): '139903da979f42c362d138d611d00d8f9033694dee589c482f1dc0703ae97629',
    ('srs-uplink', 3.0, 'dropout'): '7741e58cb09ed7edd0e2e735f511c64114ac4011fd1d946237776f9773680276',
    ('srs-uplink', 3.0, 'short'): '1078b1a7125e9047c503b5c6272eb4bec0d750ff545e6d5cf89923365b6e3c78',
    ('srs-uplink', 3.0, 'sounding'): '78971644a3b631bb6ef693266891672f05d386da4af3f56a4a243da96f4dd9eb',
}


def _system(mode, bandwidth, faults=None):
    config = SystemConfig(
        bandwidth_mhz=bandwidth,
        n_frames=2,
        reference_mode="genie",
        sync_mode="model",
        multipath=False,
        substrate=mode,
        faults=faults,
    )
    return LScatterSystem(config, rng=0)


def _update(digest, array, dtype):
    digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())


def schedule_digest(mode, bandwidth):
    system = _system(mode, bandwidth)
    n_samples = 2 * system.params.samples_per_frame
    rng = np.random.default_rng(1)
    digest = hashlib.sha256()
    for length, error, owned, drift in itertools.product(
        PAYLOAD_LENGTHS, TIMING_ERRORS, OWNED, DRIFTS
    ):
        payload = rng.integers(0, 2, length).astype(np.int8)
        schedule = system.substrate.build_schedule(
            system.controller.genie_timing(0, error),
            n_samples,
            payload,
            owned_half_frames=owned,
            drift_per_half_frame=drift,
        )
        _update(digest, schedule.chips, np.int8)
        for window in schedule.windows:
            digest.update(
                f"{window.start},{window.n_chips},{window.kind};".encode()
            )
            _update(digest, window.bits, np.int8)
        _update(digest, schedule.payload_bits, np.int8)
        digest.update(f"|{schedule.n_half_frames}|".encode())
    return digest.hexdigest()


def _front(mode, bandwidth, session):
    faults = None
    if session == "dropout":
        faults = FaultPlan(injectors=(AmbientDropout(0.4),), seed=5)
    system = _system(mode, bandwidth, faults)
    front = system.run_frontend(payload_length=4000)
    if session in ("short", "sounding"):
        # The sounding session ends one sample before the last
        # half-frame's PSS does, so its SSS fits and its PSS does not.
        params = system.params
        end = len(front.shifted_rx) - CUT_SAMPLES
        if session == "sounding":
            end = (
                int(front.half_starts[-1])
                + params.useful_start(0, PSS_SYMBOL_IN_SLOT)
                + params.fft_size
                - 1
            )
        front = dataclasses.replace(
            front, shifted_rx=front.shifted_rx[:end], reference=front.reference[:end]
        )
    return system, front


def receiver_digest(mode, bandwidth, session):
    system, front = _front(mode, bandwidth, session)
    demod = system.substrate.demodulate(front)
    digest = hashlib.sha256()
    _update(digest, demod.bits, np.int8)
    _update(digest, demod.soft, np.float64)
    _update(digest, demod.starts, np.int64)
    _update(digest, demod.window_erased, np.bool_)
    return digest.hexdigest()


@pytest.mark.parametrize("bandwidth", BANDWIDTHS)
@pytest.mark.parametrize("mode", MODES)
def test_schedule_is_pinned(mode, bandwidth):
    assert schedule_digest(mode, bandwidth) == SCHEDULE_SHA256[mode, bandwidth]


@pytest.mark.parametrize("session", SESSIONS)
@pytest.mark.parametrize("bandwidth", BANDWIDTHS)
@pytest.mark.parametrize("mode", MODES)
def test_receiver_is_pinned(mode, bandwidth, session):
    digest = receiver_digest(mode, bandwidth, session)
    assert digest == RECEIVER_SHA256[mode, bandwidth, session]
