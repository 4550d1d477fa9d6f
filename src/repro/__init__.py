"""LScatter reproduction: ambient-LTE backscatter communication.

A from-scratch Python implementation of the system described in
"Leveraging Ambient LTE Traffic for Ubiquitous Passive Communication"
(SIGCOMM 2020), including the LTE and WiFi PHY substrates, the tag
(analog sync circuit + chip modulator), the backscatter receiver, the
wireless channel, the baselines the paper compares against, and the
experiment harness that regenerates every table and figure.

Quickstart::

    from repro import LScatterSystem, SystemConfig

    system = LScatterSystem(SystemConfig(bandwidth_mhz=5.0), rng=0)
    report = system.run(payload_length=20000)
    print(report.ber, report.throughput_bps)

Sub-packages:

* ``repro.lte`` / ``repro.wifi`` — the PHY substrates;
* ``repro.channel`` — path loss, fading, noise, backscatter link budgets;
* ``repro.tag`` — envelope detector, sync circuit, scheduler, modulator,
  power model;
* ``repro.bsrx`` — the backscatter receiver pipeline;
* ``repro.core`` — the end-to-end system and the calibrated link model;
* ``repro.baselines`` — models of FreeRider-style WiFi backscatter,
  symbol-level LTE backscatter and PLoRa;
* ``repro.traffic`` — ambient traffic occupancy models;
* ``repro.apps`` — continuous authentication and smart-home sensing;
* ``repro.experiments`` — one module per table/figure of the paper.
"""

from repro.core.config import SystemConfig
from repro.core.link_budget import LScatterLinkModel, LinkPrediction
from repro.core.metrics import LinkReport
from repro.core.system import LScatterSystem

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "LScatterSystem",
    "LScatterLinkModel",
    "LinkPrediction",
    "LinkReport",
    "__version__",
]
