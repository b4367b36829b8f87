"""fetsim: simulation and verification workbench for the FET
(Follow the Emerging Trend) self-stabilizing bit-dissemination protocol.

Import names from their modules (``fetsim.protocol``, ``fetsim.harness``,
...); the package root binds only ``__version__``.
"""

__version__ = "0.1.0"
