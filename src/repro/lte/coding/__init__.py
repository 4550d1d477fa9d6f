"""LTE downlink channel coding (36.212 subset).

CRC attachment, tail-biting convolutional coding with a vectorised Viterbi
decoder, sub-block-interleaved rate matching, and scrambling.  This is the
coding chain used by the reproduction's PDSCH so that "LTE throughput"
(Fig. 32) means what it does in the paper: transport blocks that survive a
real decoder and CRC check.
"""

from repro.lte.coding.crc import crc_attach, crc_check, crc_compute
from repro.lte.coding.convolutional import (
    conv_encode,
    viterbi_decode,
    viterbi_decode_many,
    CODE_RATE_INVERSE,
    CONSTRAINT_LENGTH,
)
from repro.lte.coding.rate_match import rate_match, rate_recover
from repro.lte.coding.scrambling import scramble_bits, descramble_llrs, pdsch_c_init

__all__ = [
    "crc_attach",
    "crc_check",
    "crc_compute",
    "conv_encode",
    "viterbi_decode",
    "viterbi_decode_many",
    "CODE_RATE_INVERSE",
    "CONSTRAINT_LENGTH",
    "rate_match",
    "rate_recover",
    "scramble_bits",
    "descramble_llrs",
    "pdsch_c_init",
]
