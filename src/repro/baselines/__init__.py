"""Baseline systems the paper compares against (Section V-A).

* :class:`GraphDynS` — the state-of-the-art centralised-crossbar ASIC
  prototyped on FPGA; ``GraphDynS.with_512_pes()`` builds the four-tile
  mesh-of-crossbars extension (GraphDynS-512).
* :class:`AccuGraph` — the FPGA accelerator with a parallel accumulator,
  used in the Figure 4 crossbar study.
* :class:`Gunrock` — the GPU graph system on an NVIDIA V100, modelled
  analytically (memory-transaction amplification + atomic stalls).
"""

from repro.baselines.base import (
    CrossbarAccelerator,
    CrossbarAcceleratorConfig,
)
from repro.baselines.accugraph import AccuGraph
from repro.baselines.graphdyns import GraphDynS
from repro.baselines.gunrock import Gunrock, GunrockConfig

__all__ = [
    "CrossbarAccelerator",
    "CrossbarAcceleratorConfig",
    "AccuGraph",
    "GraphDynS",
    "Gunrock",
    "GunrockConfig",
]
