"""ScalaGraph configuration (Sections III-A and V-A).

The paper's flagship configuration is two tiles, each a 16x16 PE matrix
(512 PEs total), each tile owning one private HBM stack, a 6 MB BRAM
scratchpad evenly sliced over all PEs, a 16-register aggregation
pipeline, degree-aware scheduling of up to 16 vertices per dispatch, and
a conservative 250 MHz clock.  Scaling studies vary ``pe_cols`` (32 PEs =
16x1 per tile ... 1,024 PEs = 16x32 per tile, Section V-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.memory.hbm import HBMConfig
from repro.memory.spd import ScratchpadConfig
from repro.models.frequency import Interconnect, max_frequency_mhz


@dataclass(frozen=True)
class TimingParams:
    """Tunable constants of the cycle-approximate timing model.

    These capture second-order effects the paper reports qualitatively;
    each is documented with its source.

    Attributes:
        agg_window_per_register: statistical-coalescing window slots per
            aggregation register.  An update traverses several RUs along
            its column (ROM averages ~5 hops on a 16-row column) and can
            coalesce in each one's register array, so the effective
            residency is a few times the per-RU register count; 4.0
            reproduces the paper's ~50% communication reduction at 16
            registers (Figure 18a).
        noc_link_updates_per_cycle: vertex updates one mesh link moves
            per cycle.  The O(N) wiring budget of the mesh affords wide
            (256-bit, four 8-byte updates) links — this is where the
            mesh spends the area the crossbar spends on N^2 wiring.
            Calibrated so that the row-oriented mapping's NoC is not the
            bottleneck (Figure 20's high utilisation) while the
            source-oriented mapping's is (Figure 17's 2.6x ROM speedup).
        noc_pipeline_latency: extra queueing/turnaround cycles added to
            the average hop latency when charging the per-phase NoC fill
            (Section V-B: ROM averages 5.9-cycle packet latency on a
            16-row column, which is its mean hop count plus ~1).
        phase_overhead_cycles: fixed per-phase control overhead: draining
            the in-flight updates of a 16-row mesh through multi-hop
            routes, the first-access HBM latency (~128 cycles), and
            active-list turnaround.  This is the 'high routing latency'
            cost of the distributed hierarchy the paper cites as the
            reason ScalaGraph-128 gains only 1.2x over GraphDynS-128
            (Section V-B) — it bites exactly when frontiers are small.
        pipelining_efficiency: fraction of the ideal Apply/Scatter
            overlap the inter-phase pipeline achieves (Section IV-D).
        dispatch_efficiency: fraction of dispatcher slots usable in
            steady state (FIFO bubbles, line-boundary effects).
        spd_forwarding_window: back-to-back same-vertex reduces absorbed
            by the SPD port's read-modify-write forwarding registers
            (standard BRAM RMW hazard forwarding) even when the
            aggregation pipeline is disabled — without it a FIFO-only
            design would be implausibly crushed by hot vertices.
    """

    agg_window_per_register: float = 4.0
    noc_link_updates_per_cycle: float = 4.0
    spd_forwarding_window: float = 4.0
    noc_pipeline_latency: float = 2.0
    phase_overhead_cycles: float = 128.0
    pipelining_efficiency: float = 0.9
    dispatch_efficiency: float = 0.95

    def __post_init__(self) -> None:
        if not 0 < self.dispatch_efficiency <= 1:
            raise ConfigurationError("dispatch_efficiency must be in (0, 1]")
        if not 0 <= self.pipelining_efficiency <= 1:
            raise ConfigurationError("pipelining_efficiency must be in [0, 1]")


@dataclass(frozen=True)
class ScalaGraphConfig:
    """Full configuration of one ScalaGraph instance.

    Attributes:
        num_tiles: tiles, each with a private HBM stack (paper: 2).
        pe_rows: rows per tile's PE matrix (fixed at 16 in the paper).
        pe_cols: columns per tile (16 => the 512-PE flagship; scaling
            adds or removes columns, Section V-E).
        frequency_mhz: operating clock; None selects the conservative
            250 MHz the paper uses, capped by the synthesis model.
        mapping: workload-PE mapping ('rom', 'som', or 'dom').
        aggregation_registers: registers in each RU's aggregation
            pipeline (paper default 16; 0 degrades to a FIFO).
        degree_aware_window: max low-degree vertices packed into one
            dispatch line (paper default 16; 1 = baseline scheduler).
        inter_phase_pipelining: overlap Apply with the next Scatter for
            monotonic algorithms (Section IV-D).
        noc_engine: cycle-level mesh simulator implementation —
            'reference' (one Router object per node, the auditable
            golden model), 'vectorized' (struct-of-arrays engine whose
            cycle step is compiled C, behaviourally identical; see
            repro.noc.fastmesh), or 'auto' (vectorized at every mesh
            size whenever the kernel can be built, else the reference
            with a RuntimeWarning).
        cycle_engine: scatter-phase implementation of the cycle-accurate
            simulator — 'reference' (per-object Python loops, the
            auditable golden model), 'vectorized' (the whole cycle loop
            in compiled code, stepping the compiled mesh, behaviourally
            identical; see repro.core.fastsim), or 'auto' (vectorized
            at every mesh size whenever the run steps the compiled
            mesh, unless the program's reduce is not
            np.add/np.minimum/np.maximum).  'vectorized' with
            noc_engine='reference' is rejected.
        hbm: off-chip memory parameters.
        spd: scratchpad parameters.
        edge_bytes: stored bytes per edge (4, Section I).
        vertex_bytes: stored bytes per vertex record.
        timing: second-order timing constants.
    """

    num_tiles: int = 2
    pe_rows: int = 16
    pe_cols: int = 16
    frequency_mhz: Optional[float] = None
    mapping: str = "rom"
    aggregation_registers: int = 16
    degree_aware_window: int = 16
    inter_phase_pipelining: bool = True
    noc_engine: str = "auto"
    cycle_engine: str = "auto"
    hbm: HBMConfig = field(default_factory=HBMConfig)
    spd: ScratchpadConfig = field(default_factory=ScratchpadConfig)
    edge_bytes: int = 4
    vertex_bytes: int = 8
    timing: TimingParams = field(default_factory=TimingParams)

    def __post_init__(self) -> None:
        if self.num_tiles <= 0:
            raise ConfigurationError("num_tiles must be positive")
        if self.pe_rows <= 0 or self.pe_cols <= 0:
            raise ConfigurationError("PE matrix dimensions must be positive")
        if self.mapping.lower() not in ("rom", "som", "dom", "rom-torus"):
            raise ConfigurationError(
                f"unknown mapping {self.mapping!r} "
                "(rom/som/dom/rom-torus)"
            )
        if self.noc_engine.lower() not in ("auto", "reference", "vectorized"):
            raise ConfigurationError(
                f"unknown noc_engine {self.noc_engine!r} "
                "(auto/reference/vectorized)"
            )
        if self.cycle_engine.lower() not in (
            "auto",
            "reference",
            "vectorized",
        ):
            raise ConfigurationError(
                f"unknown cycle_engine {self.cycle_engine!r} "
                "(auto/reference/vectorized)"
            )
        if (
            self.cycle_engine.lower() == "vectorized"
            and self.noc_engine.lower() == "reference"
        ):
            raise ConfigurationError(
                "cycle_engine='vectorized' steps the compiled mesh; it "
                "cannot run with noc_engine='reference'"
            )
        if self.aggregation_registers < 0:
            raise ConfigurationError("aggregation_registers must be >= 0")
        if self.degree_aware_window <= 0:
            raise ConfigurationError("degree_aware_window must be positive")
        if self.edge_bytes <= 0 or self.vertex_bytes <= 0:
            raise ConfigurationError("record sizes must be positive")
        if self.frequency_mhz is not None and self.frequency_mhz <= 0:
            raise ConfigurationError("frequency must be positive")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def pes_per_tile(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def num_pes(self) -> int:
        return self.num_tiles * self.pes_per_tile

    @property
    def total_cols(self) -> int:
        """Columns of the logical PE matrix with tiles laid side by side
        (the geometry the row-oriented mapping dispatches across:
        Section V-C notes ROM uses the rows of both tiles)."""
        return self.num_tiles * self.pe_cols

    @property
    def interconnect(self) -> Interconnect:
        """The NoC implied by the mapping (torus for 'rom-torus')."""
        if self.mapping.lower() == "rom-torus":
            return Interconnect.TORUS
        return Interconnect.MESH

    @property
    def clock_mhz(self) -> float:
        """Operating clock: the requested one, else the paper's
        conservative 250 MHz bounded by the synthesis model."""
        if self.frequency_mhz is not None:
            return self.frequency_mhz
        return min(250.0, max_frequency_mhz(self.interconnect, self.num_pes))

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6

    def with_pes(self, num_pes: int) -> "ScalaGraphConfig":
        """A copy resized to ``num_pes`` following the paper's scaling
        recipe: 16 rows per tile, columns added one at a time
        (Section V-E: 32 PEs => 16x1 per tile)."""
        per_tile = num_pes // self.num_tiles
        if per_tile * self.num_tiles != num_pes:
            raise ConfigurationError(
                f"{num_pes} PEs do not divide into {self.num_tiles} tiles"
            )
        cols = per_tile // self.pe_rows
        if cols * self.pe_rows != per_tile or cols <= 0:
            raise ConfigurationError(
                f"{per_tile} PEs/tile is not a whole number of "
                f"{self.pe_rows}-PE columns"
            )
        return replace(self, pe_cols=cols)
