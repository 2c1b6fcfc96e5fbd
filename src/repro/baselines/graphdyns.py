"""GraphDynS baseline (Yan et al., MICRO 2019) as prototyped in the paper.

GraphDynS extracts data dependencies dynamically and couples a
load-balanced edge scheduler, a precise edge prefetcher, and vectorised
on-chip vertex access behind a centralised crossbar.  The paper
prototypes it on the U280 (Section V-A): the best configuration is 128
PEs behind a 128-radix crossbar at its highest achievable 100 MHz
(**GraphDynS-128**); the apples-to-apples 512-PE extension is four
mesh-connected 128-PE crossbar tiles (**GraphDynS-512**).
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import CrossbarAccelerator, CrossbarAcceleratorConfig
from repro.memory.spd import MB, ScratchpadConfig


def _graphdyns_config(
    num_pes: int,
    num_tiles: int,
    frequency_mhz: Optional[float],
) -> CrossbarAcceleratorConfig:
    return CrossbarAcceleratorConfig(
        name="GraphDynS",
        num_pes=num_pes,
        num_tiles=num_tiles,
        frequency_mhz=frequency_mhz,
        vector_width=8,
        dispatch_efficiency=0.95,
    )


class GraphDynS(CrossbarAccelerator):
    """GraphDynS with the paper's prototype parameters.

    The default instance is GraphDynS-128 — Section V-A: 'we implement
    GraphDyns with 128 PEs connected via a 128-radix crossbar running at
    its highest frequency of 100MHz'.
    """

    def __init__(self, config: Optional[CrossbarAcceleratorConfig] = None) -> None:
        super().__init__(config or _graphdyns_config(128, 1, 100.0))

    @classmethod
    def with_128_pes(cls) -> "GraphDynS":
        """The paper's GraphDynS-128 reference point."""
        return cls()

    @classmethod
    def with_512_pes(cls) -> "GraphDynS":
        """GraphDynS-512: four mesh-connected 128-PE crossbar tiles.

        Section V-A: simply replacing the crossbar with a mesh slows
        GraphDynS down (~1.98x against ScalaGraph-128) because of the
        increased NoC communications, so the paper — and this model —
        keeps the crossbars inside tiles and meshes the tiles together.
        """
        return cls(_graphdyns_config(512, 4, 100.0))

    @classmethod
    def with_pes(
        cls,
        num_pes: int,
        frequency_mhz: Optional[float] = None,
        with_crossbar: bool = True,
    ) -> "GraphDynS":
        """An arbitrary-size single-tile variant (Figure 4 study).

        With ``frequency_mhz=None`` the clock comes from the crossbar
        synthesis model and raises
        :class:`~repro.errors.SynthesisError` beyond 128 PEs (the
        Figure 4 route failures).  ``with_crossbar=False`` builds the
        crossbar-removed control variant.  The scratchpad is the
        prototype's 4 MB of BRAM (Section II-B).
        """
        from dataclasses import replace

        cfg = replace(
            _graphdyns_config(num_pes, 1, frequency_mhz),
            with_crossbar=with_crossbar,
            spd=ScratchpadConfig(total_bytes=4 * MB),
        )
        return cls(cfg)
