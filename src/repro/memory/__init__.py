"""Off-chip (HBM) and on-chip (scratchpad) memory models.

The U280 card provides two 4 GB HBM2 stacks with 460 GB/s aggregate
bandwidth; each prefetcher binds to one of 32 pseudo channels
(Section III-A / V-A).  The HBM model enforces bandwidth and access
granularity (64-byte lines); the scratchpad model tracks slice capacity
and single-port serialisation of same-slice reduces.
"""

from repro.memory.hbm import HBMConfig, HBMModel
from repro.memory.interleave import ChannelInterleaver, ChannelLoadReport
from repro.memory.request import cachelines_touched
from repro.memory.spd import ScratchpadConfig, ScratchpadSlice

__all__ = [
    "HBMConfig",
    "HBMModel",
    "ChannelInterleaver",
    "ChannelLoadReport",
    "cachelines_touched",
    "ScratchpadConfig",
    "ScratchpadSlice",
]
