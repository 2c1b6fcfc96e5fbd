"""Seeded fault schedules and the shared graceful-degradation policy.

A :class:`FaultSchedule` is the single source of truth every simulator
layer queries: the mesh engines ask for per-cycle dead-link and
FIFO-stall masks, the cycle-accurate simulator asks for PE stall
windows, and the analytic accelerator derives a derated
:class:`~repro.memory.hbm.HBMConfig`.  All fault windows are half-open
``[start, end)`` cycle intervals and strictly finite — faults are
transient by construction, which bounds every detour/retry loop the
degradation policy can enter.

The schedule is generated **eagerly and deterministically** at
construction: the RNG seed is derived from the user seed, the topology,
and the fault counts via the frozen :func:`~repro.graph.datasets.stable_seed`
formula, so identical inputs reproduce the identical schedule in any
process (CI replays a schedule twice and diffs the digests).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.datasets import stable_seed
from repro.memory.hbm import HBMConfig
from repro.noc.router import (
    EAST,
    LOCAL,
    NORTH,
    NUM_PORTS,
    SOUTH,
    WEST,
    xy_output_port,
)
from repro.noc.topology import MeshTopology

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.config import ScalaGraphConfig

__all__ = [
    "FaultConfig",
    "FaultSchedule",
    "FifoStall",
    "LinkOutage",
    "PEStallWindow",
    "route_with_faults",
]


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of one fault campaign (all windows in simulated cycles).

    Attributes:
        seed: user-facing fault seed; the actual RNG seed is derived
            from it (plus topology and counts) via ``stable_seed``.
        link_outages: number of dead-link windows to draw.
        fifo_stalls: number of frozen-FIFO windows to draw.
        pe_stalls: number of PE stall windows to draw (cycle-accurate
            simulator only).
        horizon: fault start cycles are drawn uniformly from
            ``[0, horizon)``; align it with the expected phase length.
        min_duration: shortest fault window, inclusive.
        max_duration: longest fault window, inclusive.
        hbm_disabled_channels: HBM pseudo channels taken offline
            (derates aggregate bandwidth proportionally).
    """

    seed: int = 0
    link_outages: int = 2
    fifo_stalls: int = 2
    pe_stalls: int = 0
    horizon: int = 256
    min_duration: int = 8
    max_duration: int = 48
    hbm_disabled_channels: int = 0

    def __post_init__(self) -> None:
        if min(self.link_outages, self.fifo_stalls, self.pe_stalls) < 0:
            raise ConfigurationError("fault counts must be >= 0")
        if self.horizon <= 0:
            raise ConfigurationError("fault horizon must be positive")
        if not 0 < self.min_duration <= self.max_duration:
            raise ConfigurationError(
                "fault durations must satisfy 0 < min <= max "
                "(faults are transient by contract)"
            )
        if self.hbm_disabled_channels < 0:
            raise ConfigurationError("hbm_disabled_channels must be >= 0")


@dataclass(frozen=True)
class LinkOutage:
    """One dead mesh link, identified by its upstream endpoint.

    Attributes:
        node: router whose output the link leaves.
        port: output port (NORTH/SOUTH/WEST/EAST; never LOCAL).
        start: first dead cycle (inclusive).
        end: first alive cycle again (exclusive).
    """

    node: int
    port: int
    start: int
    end: int


@dataclass(frozen=True)
class FifoStall:
    """One frozen router input FIFO: dequeues stop, arrivals continue.

    Attributes:
        node: router owning the FIFO.
        port: input port (any of the five, LOCAL included).
        start: first stalled cycle (inclusive).
        end: first free cycle again (exclusive).
    """

    node: int
    port: int
    start: int
    end: int


@dataclass(frozen=True)
class PEStallWindow:
    """One stalled PE: no RU egress, no SPD reduce during the window.

    Attributes:
        pe: the stalled PE's node index.
        start: first stalled cycle (inclusive).
        end: first working cycle again (exclusive).
    """

    pe: int
    start: int
    end: int


def _physical_links(topology: MeshTopology) -> List[Tuple[int, int]]:
    """Every (node, output port) pair that has a physical link."""
    links: List[Tuple[int, int]] = []
    for node in range(topology.num_nodes):
        r, c = topology.coord(node)
        if r > 0:
            links.append((node, NORTH))
        if r + 1 < topology.rows:
            links.append((node, SOUTH))
        if c > 0:
            links.append((node, WEST))
        if c + 1 < topology.cols:
            links.append((node, EAST))
    return links


def derive_fault_seed(config: FaultConfig, topology: MeshTopology) -> int:
    """The RNG seed of a schedule, via the ``stable_seed`` contract.

    Folding the topology and fault counts into the key means a schedule
    never silently reuses another campaign's draw sequence when only a
    non-seed knob changed.
    """
    key = (
        f"faults:v1:{config.seed}:{topology.rows}x{topology.cols}:"
        f"{config.link_outages}:{config.fifo_stalls}:{config.pe_stalls}:"
        f"{config.horizon}:{config.min_duration}:{config.max_duration}"
    )
    return stable_seed(key)


class FaultSchedule:
    """A fully materialised, replayable fault campaign for one mesh.

    Construction draws every fault eagerly with a seeded NumPy RNG (seed
    from :func:`derive_fault_seed`), so two schedules built from the
    same ``(topology, config)`` are identical — :meth:`digest` over
    :meth:`describe` is the replay-determinism witness CI checks.

    Query surface (all pure, cycle-indexed):

    * :meth:`link_dead_mask` / :meth:`fifo_stall_mask` — ``(nodes, 5)``
      boolean matrices for the vectorised engine (the reference engine
      reads the same masks row-wise, keeping both engines literally on
      one code path for fault state),
    * :meth:`pe_stalled` — scalar PE-stall check for the cycle sim,
    * :meth:`degraded_hbm` / :attr:`hbm_bandwidth_fraction` — HBM
      derating for the memory model,
    * :attr:`link_availability` — time-averaged live-link fraction for
      the analytic NoC bound.
    """

    def __init__(
        self, topology: MeshTopology, config: Optional[FaultConfig] = None
    ) -> None:
        self.topology = topology
        self.config = config if config is not None else FaultConfig()
        self.seed = derive_fault_seed(self.config, topology)
        rng = np.random.default_rng(self.seed)
        cfg = self.config
        n = topology.num_nodes

        def window() -> Tuple[int, int]:
            start = int(rng.integers(0, cfg.horizon))
            duration = int(
                rng.integers(cfg.min_duration, cfg.max_duration + 1)
            )
            return start, start + duration

        links = _physical_links(topology)
        self.link_outages: List[LinkOutage] = []
        if links:
            for _ in range(cfg.link_outages):
                node, port = links[int(rng.integers(len(links)))]
                start, end = window()
                self.link_outages.append(LinkOutage(node, port, start, end))
        self.fifo_stalls: List[FifoStall] = []
        for _ in range(cfg.fifo_stalls):
            node = int(rng.integers(n))
            port = int(rng.integers(NUM_PORTS))
            start, end = window()
            self.fifo_stalls.append(FifoStall(node, port, start, end))
        self.pe_stalls: List[PEStallWindow] = []
        for _ in range(cfg.pe_stalls):
            pe = int(rng.integers(n))
            start, end = window()
            self.pe_stalls.append(PEStallWindow(pe, start, end))

        self._num_links = len(links)
        # Per-cycle masks are tiny to rebuild (few faults); a one-entry
        # cache covers the hot pattern of both engines stepping the same
        # cycle during differential runs.
        self._dead_cache: Tuple[int, Optional[np.ndarray]] = (-1, None)
        self._stall_cache: Tuple[int, Optional[np.ndarray]] = (-1, None)
        self._pe_stall_cache: Tuple[int, Optional[np.ndarray]] = (-1, None)

    # ------------------------------------------------------------------
    # Mesh-facing queries
    # ------------------------------------------------------------------
    def link_dead_mask(self, cycle: int) -> np.ndarray:
        """``(nodes, NUM_PORTS)`` booleans: output links dead at ``cycle``."""
        cached_cycle, mask = self._dead_cache
        if cycle != cached_cycle or mask is None:
            mask = np.zeros(
                (self.topology.num_nodes, NUM_PORTS), dtype=bool
            )
            for outage in self.link_outages:
                if outage.start <= cycle < outage.end:
                    mask[outage.node, outage.port] = True
            self._dead_cache = (cycle, mask)
        return mask

    def fifo_stall_mask(self, cycle: int) -> np.ndarray:
        """``(nodes, NUM_PORTS)`` booleans: input FIFOs frozen at ``cycle``."""
        cached_cycle, mask = self._stall_cache
        if cycle != cached_cycle or mask is None:
            mask = np.zeros(
                (self.topology.num_nodes, NUM_PORTS), dtype=bool
            )
            for stall in self.fifo_stalls:
                if stall.start <= cycle < stall.end:
                    mask[stall.node, stall.port] = True
            self._stall_cache = (cycle, mask)
        return mask

    def route(
        self, node: int, dst: int, cycle: int
    ) -> Tuple[Optional[int], bool]:
        """Scalar :func:`route_with_faults` against this schedule's
        dead-link mask — the reference engine's per-packet entry point
        (the vectorised engine consumes :meth:`link_dead_mask` whole)."""
        return route_with_faults(
            self.topology, node, dst, self.link_dead_mask(cycle)[node]
        )

    def any_mesh_faults(self) -> bool:
        """Whether the schedule carries any mesh-visible fault at all."""
        return bool(self.link_outages or self.fifo_stalls)

    def last_mesh_fault_cycle(self) -> int:
        """Cycle after which every mesh fault window has closed."""
        ends = [o.end for o in self.link_outages]
        ends += [s.end for s in self.fifo_stalls]
        return max(ends) if ends else 0

    def next_boundary_cycle(self, cycle: int) -> Optional[int]:
        """First cycle strictly after ``cycle`` at which any fault
        window opens or closes, or None when no edge remains.

        Every mask this schedule serves (:meth:`link_dead_mask`,
        :meth:`fifo_stall_mask`, :meth:`pe_stall_mask`) is constant on
        ``[cycle, next_boundary_cycle(cycle))`` — the contract the
        drain-mode batching in the vectorised scatter engine relies on
        to fast-forward through stall windows without re-evaluating the
        masks each cycle.
        """
        best: Optional[int] = None
        for windows in (self.link_outages, self.fifo_stalls, self.pe_stalls):
            for w in windows:
                for edge in (w.start, w.end):
                    if edge > cycle and (best is None or edge < best):
                        best = edge
        return best

    # ------------------------------------------------------------------
    # Cycle-sim-facing queries
    # ------------------------------------------------------------------
    def pe_stalled(self, pe: int, cycle: int) -> bool:
        """Whether ``pe`` sits in a stall window at ``cycle``."""
        for stall in self.pe_stalls:
            if stall.pe == pe and stall.start <= cycle < stall.end:
                return True
        return False

    def pe_stall_mask(self, cycle: int) -> np.ndarray:
        """``(nodes,)`` booleans: PEs stalled at ``cycle`` — the whole-
        mesh form of :meth:`pe_stalled` for the vectorised scatter
        engine (same one-entry cache pattern as the mesh masks)."""
        cached_cycle, mask = self._pe_stall_cache
        if cycle != cached_cycle or mask is None:
            mask = np.zeros(self.topology.num_nodes, dtype=bool)
            for stall in self.pe_stalls:
                if stall.start <= cycle < stall.end:
                    mask[stall.pe] = True
            self._pe_stall_cache = (cycle, mask)
        return mask

    # ------------------------------------------------------------------
    # Memory / analytic-model-facing queries
    # ------------------------------------------------------------------
    @property
    def hbm_bandwidth_fraction(self) -> float:
        """Bandwidth surviving the disabled pseudo channels, per the
        default :class:`~repro.memory.hbm.HBMConfig` channel count."""
        return self._hbm_fraction(HBMConfig())

    def _hbm_fraction(self, hbm: HBMConfig) -> float:
        disabled = self.config.hbm_disabled_channels
        total = hbm.num_pseudo_channels
        if disabled >= total:
            raise ConfigurationError(
                f"cannot disable {disabled} of {total} HBM pseudo channels"
            )
        return (total - disabled) / total

    def degraded_hbm(self, hbm: HBMConfig) -> HBMConfig:
        """``hbm`` with the disabled channels' bandwidth removed (see
        :meth:`~repro.memory.hbm.HBMConfig.with_disabled_channels`)."""
        return hbm.with_disabled_channels(self.config.hbm_disabled_channels)

    @property
    def link_availability(self) -> float:
        """Time-averaged fraction of live links over the campaign.

        Measured over ``[0, max(horizon, last outage end))`` and floored
        at 1% so analytic NoC bounds stay finite even under pathological
        hand-built schedules.
        """
        if not self.link_outages or not self._num_links:
            return 1.0
        span = max(
            self.config.horizon, max(o.end for o in self.link_outages)
        )
        dead = sum(o.end - o.start for o in self.link_outages)
        return max(0.01, 1.0 - dead / (self._num_links * span))

    def apply_to_config(
        self, config: "ScalaGraphConfig"
    ) -> "ScalaGraphConfig":
        """A :class:`~repro.core.config.ScalaGraphConfig` copy with the
        HBM derated and the analytic NoC link bandwidth scaled by
        :attr:`link_availability` (works on any config dataclass with
        ``hbm`` and ``timing.noc_link_updates_per_cycle`` fields)."""
        timing = replace(
            config.timing,
            noc_link_updates_per_cycle=(
                config.timing.noc_link_updates_per_cycle
                * self.link_availability
            ),
        )
        return replace(
            config, hbm=self.degraded_hbm(config.hbm), timing=timing
        )

    # ------------------------------------------------------------------
    # Replay determinism
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """JSON-able, fully ordered description of the whole campaign."""
        return {
            "schema": "repro-faults/1",
            "seed": self.seed,
            "config": asdict(self.config),
            "topology": [self.topology.rows, self.topology.cols],
            "link_outages": [
                [o.node, o.port, o.start, o.end] for o in self.link_outages
            ],
            "fifo_stalls": [
                [s.node, s.port, s.start, s.end] for s in self.fifo_stalls
            ],
            "pe_stalls": [
                [s.pe, s.start, s.end] for s in self.pe_stalls
            ],
        }

    def digest(self) -> str:
        """SHA-256 over :meth:`describe` — the replay witness."""
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def route_with_faults(
    topology: MeshTopology,
    node: int,
    dst: int,
    dead_row: np.ndarray,
) -> Tuple[Optional[int], bool]:
    """Graceful-degradation routing decision for one head-of-line packet.

    ``dead_row`` is the node's row of :meth:`FaultSchedule.link_dead_mask`
    for the current cycle.  Policy (mirrored exactly by the vectorised
    engine — see ``deflect`` in ``repro/noc/meshkernel.c``):

    1. Compute the pure XY port.  LOCAL, or an alive link: use it.
    2. Dead X-direction link: deflect one hop along Y *toward* the
       destination row (or toward the mesh interior when already on it).
    3. Dead Y-direction link (XY guarantees the column already matches):
       deflect one hop along X toward the mesh interior (EAST when a
       column exists to the east, else WEST).
    4. Deflection link also dead: make no request this cycle — the
       packet waits (fault windows are finite, so waits are bounded).

    Returns ``(out_port or None, hit)`` where ``hit`` flags that a dead
    link influenced this packet (feeds ``degraded_cycles``).  Deflection
    can ping-pong while an outage lasts (each retry re-routes from
    scratch); it terminates because every window is finite.
    """
    port = xy_output_port(topology, node, dst)
    if port == LOCAL or not dead_row[port]:
        return port, False
    r, c = topology.coord(node)
    dr, _dc = topology.coord(dst)
    if port in (EAST, WEST):
        if topology.rows == 1:
            return None, True  # no Y axis to deflect along
        if r < dr:
            alt = SOUTH
        elif r > dr:
            alt = NORTH
        else:
            alt = SOUTH if r + 1 < topology.rows else NORTH
    else:
        if topology.cols == 1:
            return None, True  # no X axis to deflect along
        alt = EAST if c + 1 < topology.cols else WEST
    if dead_row[alt]:
        return None, True
    return alt, True
