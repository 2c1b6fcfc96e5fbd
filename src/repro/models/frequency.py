"""Maximal synthesis frequency vs PE count, per interconnect.

The paper measures (Vivado 2019.1, Alveo U280):

* **Table IV** — ScalaGraph's mesh: 304/293/292/285/274/258 MHz at
  32/64/128/256/512/1024 PEs; GraphDynS's crossbar: 270/227/112 MHz at
  32/64/128 and *route failure* at >= 256.
* **Figure 4a** — AccuGraph/GraphDynS drop from ~300 MHz to ~100 MHz
  beyond 64 PEs; the crossbar-free variants hold ~300 MHz.
* **Figure 8** — Benes (O(N log N)) and the multi-stage crossbar scale
  further than the crossbar but fail to compile at 512 PEs; only the
  mesh supports 1,024+ PEs with negligible loss.

This module interpolates those published points geometrically in
log2(PEs) and extrapolates with each topology's complexity law.  A
configuration beyond a topology's route-failure limit raises
:class:`~repro.errors.SynthesisError` (the Table IV '-' entries).
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Tuple

from repro.errors import ConfigurationError, SynthesisError


class Interconnect(enum.Enum):
    """On-chip interconnects compared in Figure 8."""

    CROSSBAR = "crossbar"  # O(N^2): Graphicionado/AccuGraph/GraphDynS
    MULTISTAGE_CROSSBAR = "multistage_crossbar"  # event-driven designs (§VI)
    BENES = "benes"  # O(N log N)
    MESH = "mesh"  # O(N): ScalaGraph
    TORUS = "torus"  # O(N) + wrap links (future-work NoC exploration)

    @classmethod
    def parse(cls, value: "Interconnect | str") -> "Interconnect":
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError as exc:
            known = sorted(i.value for i in cls)
            raise ConfigurationError(
                f"unknown interconnect {value!r}; known: {known}"
            ) from exc


#: Largest PE count that still synthesises (beyond it the router cannot
#: find a legal placement: Section II-B / Figure 8).
_ROUTE_FAILURE_LIMIT: Dict[Interconnect, int] = {
    Interconnect.CROSSBAR: 128,
    Interconnect.MULTISTAGE_CROSSBAR: 256,
    Interconnect.BENES: 256,
    Interconnect.MESH: 1 << 20,  # bounded by chip resources, not routing
    Interconnect.TORUS: 1 << 20,
}

#: Calibration points: PEs -> MHz.  Sources in the module docstring;
#: points not published directly are interpolated from the paper's
#: qualitative statements (e.g. Benes frequency halving from 16 to 64
#: PEs, per reference [38]).
_CALIBRATION: Dict[Interconnect, Dict[int, float]] = {
    Interconnect.MESH: {
        4: 305.0,
        32: 304.0,
        64: 293.0,
        128: 292.0,
        256: 285.0,
        512: 274.0,
        1024: 258.0,
    },
    Interconnect.CROSSBAR: {
        4: 300.0,
        8: 300.0,
        16: 292.0,
        32: 270.0,
        64: 227.0,
        128: 112.0,
    },
    Interconnect.BENES: {
        4: 300.0,
        16: 285.0,
        32: 252.0,
        64: 190.0,
        128: 135.0,
        256: 92.0,
    },
    Interconnect.MULTISTAGE_CROSSBAR: {
        4: 300.0,
        16: 295.0,
        32: 280.0,
        64: 240.0,
        128: 165.0,
        256: 98.0,
    },
    # Torus: mesh minus ~8% for the chip-spanning wrap-around wires
    # (long FPGA routes cost a pipeline stage or clock margin).
    Interconnect.TORUS: {
        4: 281.0,
        32: 280.0,
        64: 270.0,
        128: 269.0,
        256: 262.0,
        512: 252.0,
        1024: 237.0,
    },
}

#: Per-doubling frequency decay used beyond the last calibration point.
_EXTRAPOLATION_DECAY: Dict[Interconnect, float] = {
    Interconnect.MESH: 0.95,  # ~5%/doubling: 2048 -> ~245 MHz
    Interconnect.CROSSBAR: 0.5,
    Interconnect.BENES: 0.65,
    Interconnect.MULTISTAGE_CROSSBAR: 0.6,
    Interconnect.TORUS: 0.95,
}


def route_failure_limit(interconnect: Interconnect | str) -> int:
    """Largest PE count the topology can place-and-route."""
    return _ROUTE_FAILURE_LIMIT[Interconnect.parse(interconnect)]


def synthesizes(interconnect: Interconnect | str, num_pes: int) -> bool:
    """Whether a configuration synthesises at all."""
    if num_pes <= 0:
        return False
    return num_pes <= route_failure_limit(interconnect)


def max_frequency_mhz(interconnect: Interconnect | str, num_pes: int) -> float:
    """Maximal clock (MHz) of ``num_pes`` PEs behind the interconnect.

    Raises:
        SynthesisError: when the configuration fails to route.
        ConfigurationError: on a non-positive PE count.
    """
    kind = Interconnect.parse(interconnect)
    if num_pes <= 0:
        raise ConfigurationError("num_pes must be positive")
    if num_pes > _ROUTE_FAILURE_LIMIT[kind]:
        raise SynthesisError(
            f"{kind.value} with {num_pes} PEs fails to route "
            f"(limit {_ROUTE_FAILURE_LIMIT[kind]})"
        )
    table = _CALIBRATION[kind]
    points = sorted(table.items())
    smallest_n, smallest_f = points[0]
    if num_pes <= smallest_n:
        return smallest_f
    largest_n, largest_f = points[-1]
    if num_pes >= largest_n:
        doublings = math.log2(num_pes / largest_n)
        return largest_f * _EXTRAPOLATION_DECAY[kind] ** doublings
    return _log_interpolate(points, num_pes)


def _log_interpolate(
    points: list[Tuple[int, float]], num_pes: int
) -> float:
    """Geometric interpolation in log2(PE count)."""
    for (n0, f0), (n1, f1) in zip(points, points[1:]):
        if n0 <= num_pes <= n1:
            if n0 == n1:
                return f0
            t = (math.log2(num_pes) - math.log2(n0)) / (
                math.log2(n1) - math.log2(n0)
            )
            return f0 * (f1 / f0) ** t
    raise ConfigurationError("interpolation out of range")  # pragma: no cover
