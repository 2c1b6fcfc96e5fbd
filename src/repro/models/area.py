"""FPGA resource-utilisation model (Figure 16, left table).

The paper reports Alveo U280 (XCU280: 1.3M LUTs, 2.6M registers, 9 MB
BRAM) utilisation:

==================  =====  =====  =====
Accelerator          LUT    REG    BRAM
==================  =====  =====  =====
GraphDynS-128       22.8%  11.6%  74.7%
ScalaGraph-128      10.9%   6.4%  70.8%
GraphDynS-512       85.1%  43.8%  76.1%
ScalaGraph-512      39.2%  22.9%  73.2%
==================  =====  =====  =====

The model decomposes each percentage into a fixed framework cost, a
per-PE cost, and an interconnect cost — O(N) links for the mesh, O(R^2)
per crossbar of radix R (GraphDynS-512 instantiates four 128-radix
crossbars) — with coefficients fitted to the four published rows.
Section V-E's LUT-exhaustion bound (>1,024 mesh PEs exceeds the chip)
emerges from the same coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.frequency import Interconnect

#: U280 chip totals (paper, Section V-A).
U280_LUTS = 1_300_000
U280_REGISTERS = 2_600_000
U280_BRAM_BYTES = 9 * (1 << 20)

# Fitted coefficients (percent of chip).  Derivation: solve the
# ScalaGraph rows for {base, per-PE} with a linear mesh cost, then the
# GraphDynS rows for the crossbar's quadratic coefficient given the same
# per-PE cost.
_LUT_BASE = 1.47
_LUT_PER_PE = 0.0737
_LUT_PER_CROSSBAR_PORT2 = 7.27e-4  # percent per (radix^2)

_REG_BASE = 0.90
_REG_PER_PE = 0.0430
_REG_PER_CROSSBAR_PORT2 = 3.18e-4

_BRAM_BASE_MESH = 70.0  # scratchpad (6/9 MB) + framework buffers
_BRAM_PER_PE_MESH = 0.00625
_BRAM_BASE_XBAR = 74.2  # VOQ storage raises the fixed cost
_BRAM_PER_PE_XBAR = 0.00365


@dataclass(frozen=True)
class ResourceUtilization:
    """Utilisation of one configuration, in percent of the U280."""

    lut_pct: float
    reg_pct: float
    bram_pct: float

    def as_row(self) -> tuple[float, float, float]:
        return (self.lut_pct, self.reg_pct, self.bram_pct)


def resource_utilization(
    num_pes: int,
    interconnect: Interconnect | str = Interconnect.MESH,
    crossbar_radix: int = 128,
) -> ResourceUtilization:
    """Model the U280 resource utilisation of a configuration.

    Args:
        num_pes: total PEs.
        interconnect: mesh (ScalaGraph) or crossbar-family (GraphDynS).
        crossbar_radix: ports per crossbar instance; designs larger than
            one radix instantiate ``num_pes / radix`` crossbars connected
            by a tile-level mesh (the GraphDynS-512 construction,
            Section V-A).
    """
    kind = Interconnect.parse(interconnect)
    if num_pes <= 0:
        raise ConfigurationError("num_pes must be positive")

    if kind is Interconnect.MESH:
        lut = _LUT_BASE + _LUT_PER_PE * num_pes
        reg = _REG_BASE + _REG_PER_PE * num_pes
        bram = _BRAM_BASE_MESH + _BRAM_PER_PE_MESH * num_pes
        return ResourceUtilization(lut, reg, bram)

    if crossbar_radix <= 0:
        raise ConfigurationError("crossbar_radix must be positive")
    radix = min(crossbar_radix, num_pes)
    instances = -(-num_pes // radix)  # ceil
    xbar_lut = _LUT_PER_CROSSBAR_PORT2 * radix * radix * instances
    xbar_reg = _REG_PER_CROSSBAR_PORT2 * radix * radix * instances
    lut = _LUT_BASE + _LUT_PER_PE * num_pes + xbar_lut
    reg = _REG_BASE + _REG_PER_PE * num_pes + xbar_reg
    bram = _BRAM_BASE_XBAR + _BRAM_PER_PE_XBAR * num_pes
    return ResourceUtilization(lut, reg, bram)
