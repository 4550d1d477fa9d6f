"""802.11a/g OFDM PHY substrate.

The WiFi-backscatter baseline (FreeRider-style) needs a real WiFi signal
to piggyback on; this package provides a from-scratch 20 MHz OFDM PHY —
STF/LTF preamble, SIGNAL field, BCC coding with interleaving, pilots —
with a transmitter and a full receiver (packet detection, channel
estimation, Viterbi decoding).
"""

from repro.wifi.params import WIFI_RATES
from repro.wifi.transmitter import WifiTransmitter, WifiPacket
from repro.wifi.receiver import WifiReceiver, WifiDecodeResult

__all__ = [
    "WIFI_RATES",
    "WifiTransmitter",
    "WifiPacket",
    "WifiReceiver",
    "WifiDecodeResult",
]
