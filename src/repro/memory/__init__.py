"""Off-chip (HBM) and on-chip (scratchpad) memory models.

The U280 card provides two 4 GB HBM2 stacks with 460 GB/s aggregate
bandwidth over 32 pseudo channels (Section III-A / V-A).  The HBM model
turns sequential stream volumes into cycles at the aggregate bandwidth
and 64-byte access granularity; the scratchpad model gives the on-chip
capacity that sets a run's partition count.
"""

from repro.memory.hbm import HBMConfig, HBMModel
from repro.memory.request import cachelines_touched
from repro.memory.spd import ScratchpadConfig

__all__ = [
    "HBMConfig",
    "HBMModel",
    "cachelines_touched",
    "ScratchpadConfig",
]
