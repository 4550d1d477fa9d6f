"""5G NR downlink substrate ("NR-lite") and LScatter on it.

The paper's §6 claims the LScatter techniques carry over to 5G.  This
package provides enough of the NR downlink to test that claim honestly:
scalable numerology (38.211 §4), the NR PSS/SSS m-sequences (§7.4.2), an
SSB-bearing frame builder, and a chip-backscatter pipeline built from the
same generic machinery as the LTE one.
"""

from repro.nr.params import NrNumerology, NR_PRESETS
from repro.nr.sync import nr_pss, nr_sss
from repro.nr.frame import NrFrameBuilder, NrCapture
from repro.nr.backscatter import nr_backscatter_trial, NrBackscatterResult

__all__ = [
    "NrNumerology",
    "NR_PRESETS",
    "nr_pss",
    "nr_sss",
    "NrFrameBuilder",
    "NrCapture",
    "nr_backscatter_trial",
    "NrBackscatterResult",
]
