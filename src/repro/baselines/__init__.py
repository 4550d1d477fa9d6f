"""Baseline backscatter systems the paper compares against.

* :mod:`repro.baselines.freerider` — ambient WiFi backscatter with
  symbol-level codeword translation (FreeRider-style), as the
  occupancy-gated throughput model.
* :mod:`repro.baselines.symbol_lte` — LTE backscatter using the same
  symbol-level technique (the paper's "Symbol Level LTE Backscatter"
  comparison arm in Figs 23/24/28/29).
* :mod:`repro.baselines.plora` — PLoRa-style ambient LoRa backscatter,
  throughput-starved by the near-zero ambient LoRa traffic.
"""

from repro.baselines.freerider import WifiBackscatterModel
from repro.baselines.symbol_lte import SymbolLevelLteTag, SymbolLteModel
from repro.baselines.plora import PLoraModel

__all__ = [
    "WifiBackscatterModel",
    "SymbolLevelLteTag",
    "SymbolLteModel",
    "PLoraModel",
]
