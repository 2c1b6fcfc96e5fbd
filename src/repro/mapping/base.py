"""Mapping interface: where a mapping places, routes, coalesces and
charges one phase's work."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.models.frequency import Interconnect
from repro.noc.aggregation import survivor_mask
from repro.noc.topology import MeshTopology
from repro.noc.traffic import LinkLoadReport


def vertex_home(vertex_ids: np.ndarray, num_pes: int) -> np.ndarray:
    """Home PE of each vertex property: the simple vertex-ID hash of
    Section III-A ('evenly partitioned to all SPDs')."""
    return np.asarray(vertex_ids, dtype=np.int64) % num_pes


@dataclass(frozen=True)
class MappingTraffic:
    """On-chip traffic produced by one phase under one mapping.

    Attributes:
        num_messages: vertex updates injected into the NoC.
        total_hops: link traversals — the paper's 'amount of on-chip
            communications'.
        link_report: per-link loads when the traffic uses the mesh
            (None for crossbar/local traffic).
        coalesced: updates the aggregation pipelines eliminated.
        spd_load: reduces the busiest SPD slice retires.
    """

    num_messages: int
    total_hops: int
    link_report: Optional[LinkLoadReport] = None
    coalesced: int = 0
    spd_load: float = 0.0

    @property
    def average_hops(self) -> float:
        return self.total_hops / self.num_messages if self.num_messages else 0.0

    @property
    def max_link_load(self) -> int:
        return self.link_report.max_link_load if self.link_report else 0


class Mapping(abc.ABC):
    """Places vertex properties and edge workloads on the PE matrix, and
    routes, coalesces and charges the resulting updates.

    Every model of the accelerator asks the mapping, never its class:
    the analytic :class:`~repro.core.accelerator.ScalaGraph` and both
    cycle engines read :meth:`dispatch_group`, and the analytic model
    also :meth:`scatter_traffic`, :meth:`apply_service_cycles`,
    :meth:`average_route_distance` and :meth:`offchip_bytes`.
    """

    #: Paper abbreviation (som / dom / rom).
    name: str = "mapping"
    #: Share of the register window the aggregation pipelines see under
    #: this mapping (scales :meth:`scatter_traffic`'s ``window``).
    aggregation_effectiveness: float = 1.0
    #: The NoC the updates route over; sets the synthesis frequency and
    #: power of a configuration.
    interconnect: Interconnect = Interconnect.MESH

    def __init__(self, topology: MeshTopology) -> None:
        self.topology = topology

    @property
    def num_pes(self) -> int:
        return self.topology.num_nodes

    def home(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Node ID owning each vertex's property."""
        return vertex_home(vertex_ids, self.num_pes)

    # ------------------------------------------------------------------
    # Phase traffic
    # ------------------------------------------------------------------
    def scatter_traffic(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        window: float = 0.0,
        spd_forwarding_window: float = 0.0,
    ) -> MappingTraffic:
        """NoC traffic of routing one Scatter phase's updates.

        An update is coalesced when the previous update to its vertex
        lies at most ``window`` x :attr:`aggregation_effectiveness`
        positions earlier in its destination column's stream
        (:func:`~repro.noc.aggregation.survivor_mask`, Section IV-B);
        :meth:`link_loads` routes the rest.  ``spd_forwarding_window``
        models the SPD port's read-modify-write forwarding registers:
        they absorb back-to-back same-vertex reduces even without the
        aggregation pipeline, so the SPD load uses the larger window.
        """
        edge_dst = np.asarray(edge_dst, dtype=np.int64)
        src_home = self.home(edge_src)
        dst_home = self.home(edge_dst)
        dst_col = self.topology.cols_of(dst_home)
        window *= self.aggregation_effectiveness
        keep = survivor_mask(edge_dst, dst_col, window)
        spd_keep = keep
        if spd_forwarding_window > window:
            spd_keep = survivor_mask(edge_dst, dst_col, spd_forwarding_window)
        report = self.link_loads(src_home, dst_home, dst_col, keep)
        return MappingTraffic(
            num_messages=report.num_packets,
            total_hops=report.total_flit_hops,
            link_report=report,
            coalesced=int(keep.size - np.count_nonzero(keep)),
            spd_load=self._busiest_pe_load(dst_home[spd_keep]),
        )

    def link_loads(
        self,
        src_home: np.ndarray,
        dst_home: np.ndarray,
        dst_col: np.ndarray,
        keep: np.ndarray,
    ) -> LinkLoadReport:
        """Directed link loads of one Scatter phase whose update ``i``
        runs from source home PE ``src_home[i]`` to destination home PE
        ``dst_home[i]`` (in column ``dst_col[i]``), where only the
        updates ``keep`` marks survive aggregation; ``num_packets``
        counts the updates injected into the NoC."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither link_loads nor "
            f"scatter_traffic"
        )

    @abc.abstractmethod
    def apply_traffic(self, updated_vertices: np.ndarray) -> MappingTraffic:
        """NoC traffic of the Apply phase for the updated vertex set."""

    def apply_service_cycles(self, num_updates: int) -> float:
        """Apply-phase NoC service bound: zero while every property is
        applied at its home PE."""
        return 0.0

    def _busiest_pe_load(self, pes: np.ndarray) -> float:
        """Entries of ``pes`` naming the most often named PE."""
        if pes.size == 0:
            return 0.0
        return float(np.bincount(pes, minlength=self.num_pes).max())

    # ------------------------------------------------------------------
    # Off-chip and storage accounting (Table II)
    # ------------------------------------------------------------------
    def offchip_bytes(
        self,
        num_active_vertices: int,
        num_active_edges: int,
        vertex_bytes: int = 8,
        edge_bytes: int = 4,
    ) -> int:
        """Off-chip traffic per iteration: O(N + M) for SOM/ROM."""
        return num_active_vertices * vertex_bytes + num_active_edges * edge_bytes

    def replica_storage_vertices(self, num_vertices: int) -> int:
        """Extra on-chip vertex replicas required (0 except for DOM)."""
        return 0

    def average_route_distance(self) -> float:
        """Expected hop count of one remote update under this mapping —
        the pipeline-fill latency the timing model charges per phase.
        SOM routes both dimensions; overridden by subclasses."""
        return self.topology.average_distance()

    # ------------------------------------------------------------------
    # Where work executes (consumed by the load-balance model)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def execution_pe(
        self, edge_src: np.ndarray, edge_dst: np.ndarray
    ) -> np.ndarray:
        """Node ID whose GU executes the Process function of each edge."""

    def dispatch_group(
        self, edge_src: np.ndarray, edge_dst: np.ndarray
    ) -> np.ndarray:
        """The vertex whose dispatch group each edge joins; a group
        streams to its vertex's home row.  A vertex's out-edges stream
        together by default."""
        return edge_src

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.topology!r})"
