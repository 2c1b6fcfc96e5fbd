"""AccuGraph baseline (Yao et al., PACT 2018).

AccuGraph is the FPGA accelerator with a *parallel accumulator* that
merges multiple same-vertex memory operations in one cycle, plus an
out-of-order on-chip memory.  It still rides a centralised crossbar, so
it shares the O(N^2) frequency wall; Section V-A drops it from the main
comparison because it 'is consistently inferior to GraphDyns in both
performance and scalability' — it appears in the Figure 4 crossbar study.

Model: the accumulator matches GraphDynS's same-partition absorption
(``vector_width``) but the static scheduler packs dispatch slots less
efficiently than GraphDynS's dynamic one, which is what makes AccuGraph
consistently the slower of the two.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.baselines.base import CrossbarAccelerator, CrossbarAcceleratorConfig
from repro.memory.spd import MB, ScratchpadConfig


def _accugraph_config(
    num_pes: int,
    frequency_mhz: Optional[float],
    with_crossbar: bool = True,
) -> CrossbarAcceleratorConfig:
    return CrossbarAcceleratorConfig(
        name="AccuGraph",
        num_pes=num_pes,
        num_tiles=1,
        frequency_mhz=frequency_mhz,
        with_crossbar=with_crossbar,
        vector_width=8,  # the parallel accumulator's merge width
        dispatch_efficiency=0.85,  # static scheduling packs worse
    )


class AccuGraph(CrossbarAccelerator):
    """AccuGraph with its paper-described parameters."""

    def __init__(self, config: Optional[CrossbarAcceleratorConfig] = None) -> None:
        super().__init__(config or _accugraph_config(128, None))

    @classmethod
    def with_pes(
        cls,
        num_pes: int,
        frequency_mhz: Optional[float] = None,
        with_crossbar: bool = True,
    ) -> "AccuGraph":
        """Arbitrary-size variant for the Figure 4 scaling study, with
        the prototype's 4 MB BRAM scratchpad (Section II-B)."""
        return cls(
            replace(
                _accugraph_config(num_pes, frequency_mhz, with_crossbar),
                spd=ScratchpadConfig(total_bytes=4 * MB),
            )
        )
