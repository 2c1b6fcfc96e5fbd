"""One iteration driver for every modelled system (DESIGN.md §4).

:func:`replay` walks a workload once and hands each frontier to every
system's :class:`PhaseModel`, so the systems of one (graph, algorithm)
cell share each frontier's edge gather, and one frontier's edges exist
at a time.  The driver owns the loop, repeat detection, the split of a
frontier's edges by partition (with each partition's distinct
destinations, computed once for every model) and the read-only views the
models get (a model that writes its input raises); a model supplies its
phase bounds.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.algorithms.base import VertexProgram
from repro.algorithms.reference import (
    ReferenceResult,
    gather_frontier_edges,
    repeats_previous,
    run_reference,
)
from repro.core.profiling import NULL_PROFILER, Profiler
from repro.core.stats import IterationStats, SimulationReport
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition
from repro.util import unique_id_counts


@dataclass(frozen=True)
class WorkloadIteration:
    """One iteration's explicit workload.

    :meth:`~repro.core.ScalaGraph.run_trace` takes these to drive the
    timing model with workloads the standard push-based reference
    engine cannot express (e.g. the pull phases of direction-optimizing
    BFS, where the edge set is not the frontier's out-edges).

    Attributes:
        active_vertices: vertices whose records stream from HBM.
        edge_src / edge_dst: the edge workloads processed this iteration.
        num_updates: vertices whose property changes (next frontier size).
    """

    active_vertices: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    num_updates: int


class PartitionEdges:
    """One partition's share of a frontier's edges, read-only.

    :func:`replay` builds one per changed frontier and destination
    interval, and every model with a partition of that interval gets the
    same one.

    Attributes:
        src / dst: the share's edge sources and destinations.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.src = src
        self.dst = dst

    @functools.cached_property
    def touched(self) -> np.ndarray:
        """The distinct destinations, ascending: the vertices the Apply
        phase visits.  Computed on first use, once for every model."""
        touched, _ = unique_id_counts(self.dst)
        return _read_only(touched)


@dataclass(frozen=True)
class Replay:
    """What one walk saw, for every model's report.

    Attributes:
        algorithm / monotonic / properties: the run's label, whether
            inter-phase pipelining is allowed, and its gold results.
        edges_traversed: the edges of every iteration.
        repeats: iterations that repeated the previous one's workload.
    """

    algorithm: str
    monotonic: bool
    properties: Optional[np.ndarray]
    edges_traversed: int
    repeats: int

    def report(
        self, graph: CSRGraph, model: "PhaseModel", **fields: Any
    ) -> SimulationReport:
        """``model``'s report: the walk's fields plus the model's."""
        return SimulationReport(
            algorithm=self.algorithm,
            graph_name=graph.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            total_edges_traversed=self.edges_traversed,
            iterations=model.iterations,
            properties=self.properties,
            num_partitions=len(model.partitions),
            **fields,
        )


class PhaseModel(abc.ABC):
    """One system's run over one graph, as the driver walks it.

    Attributes:
        system: the modelled system.
        partitions: destination-vertex intervals (capacity-checked).
        twin: a model walked beside this one, whose report this one's
            reads (the faulted ScalaGraph's clean twin), or None.
        iterations: the stats of every iteration walked so far.
    """

    def __init__(
        self,
        system: Any,
        partitions: Sequence[Partition],
        twin: Optional["PhaseModel"] = None,
    ) -> None:
        self.system = system
        self.partitions = partitions
        self.twin = twin
        self.iterations: List[IterationStats] = []

    @abc.abstractmethod
    def frontier(self, active: np.ndarray, edges: PartitionEdges) -> Any:
        """One partition's terms that depend only on the frontier and
        the partition's edges: computed once per run of repeats."""

    @abc.abstractmethod
    def iteration(
        self, index: int, step: WorkloadIteration, terms: Sequence[Any]
    ) -> IterationStats:
        """One iteration's stats, from every partition's terms and the
        terms that read ``step.num_updates``."""

    @abc.abstractmethod
    def report(self, graph: CSRGraph, run: Replay) -> SimulationReport:
        """The run's report, from :attr:`iterations`."""


class ModelledSystem(abc.ABC):
    """A system the driver walks, one :class:`PhaseModel` per run."""

    #: Optional wall-clock profiler of the runs (see ``ScalaGraph``).
    profiler: Optional[Profiler] = None

    @abc.abstractmethod
    def phase_model(self, graph: CSRGraph) -> PhaseModel:
        """A fresh model of one run over ``graph``."""

    def run(
        self,
        program: VertexProgram,
        graph: CSRGraph,
        max_iterations: Optional[int] = None,
        reference: Optional[ReferenceResult] = None,
    ) -> SimulationReport:
        """Simulate one algorithm run.

        Args:
            program: the vertex program.
            graph: the input graph.
            max_iterations: optional iteration cap.
            reference: a pre-computed functional run to replay (lets
                sweeps share one reference execution).

        Returns:
            A :class:`SimulationReport` carrying the gold properties and
            the timing accounting.
        """
        prof = self.profiler or NULL_PROFILER
        with prof.timer("analytic.reference"):
            ref = reference or run_reference(program, graph, max_iterations)
        return replay_reference(program, graph, ref, [self], prof)[0]


def replay(
    graph: CSRGraph,
    workload: Iterable[WorkloadIteration],
    systems: Sequence[ModelledSystem],
    algorithm: str = "trace",
    monotonic: bool = False,
    properties: Optional[np.ndarray] = None,
) -> List[SimulationReport]:
    """Walk ``workload`` once over ``graph``; one report per system.

    An iteration whose ``active_vertices``, ``edge_src`` and
    ``edge_dst`` equal the previous one's reuses every model's frontier
    terms; only :meth:`PhaseModel.iteration` runs again.  Models whose
    partitions share a destination interval share its
    :class:`PartitionEdges`.
    """
    models = [system.phase_model(graph) for system in systems]
    walked = models + [m.twin for m in models if m.twin is not None]
    terms: List[List[Any]] = [[] for _ in walked]
    previous: Any = None
    step: Any = None
    edges = repeats = 0
    for index, item in enumerate(workload):
        current = [
            np.asarray(array, dtype=np.int64)
            for array in (item.active_vertices, item.edge_src, item.edge_dst)
        ]
        if repeats_previous(previous, current):
            repeats += 1
            step = replace(step, num_updates=item.num_updates)
        else:
            step = WorkloadIteration(
                *(_read_only(array.view()) for array in current),
                item.num_updates,
            )
            shares: Dict[Tuple[int, int], PartitionEdges] = {}
            for m, model in enumerate(walked):
                terms[m] = [
                    model.frontier(step.active_vertices, edges)
                    for edges in _split(graph, model.partitions, step, shares)
                ]
        previous = current
        for m, model in enumerate(walked):
            model.iterations.append(model.iteration(index, step, terms[m]))
        edges += step.edge_src.size
    run = Replay(algorithm, monotonic, properties, edges, repeats)
    return [model.report(graph, run) for model in models]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _split(
    graph: CSRGraph,
    partitions: Sequence[Partition],
    step: WorkloadIteration,
    shares: Dict[Tuple[int, int], PartitionEdges],
) -> Iterator[PartitionEdges]:
    """Each partition's share of ``step``'s edges, read-only, built once
    per destination interval in ``shares``; a partition that covers
    every vertex takes the edges whole."""
    for part in partitions:
        key = (part.lo, part.hi)
        if key not in shares:
            src, dst = step.edge_src, step.edge_dst
            if part.lo > 0 or part.hi < graph.num_vertices:
                mask = part.mask(dst)
                src, dst = _read_only(src[mask]), _read_only(dst[mask])
            shares[key] = PartitionEdges(src, dst)
        yield shares[key]


def replay_reference(
    program: VertexProgram,
    graph: CSRGraph,
    reference: ReferenceResult,
    systems: Sequence[ModelledSystem],
    profiler: Profiler = NULL_PROFILER,
) -> List[SimulationReport]:
    """:func:`replay` of ``program``'s reference run.

    Its workload is derived lazily: a frontier's edges are gathered
    (timed as ``analytic.workload_build``) only when it differs from the
    previous iteration's, and a repeat reuses the previous arrays, so
    the driver's repeat test settles on identity.
    """

    def workload() -> Iterator[WorkloadIteration]:
        item: Optional[WorkloadIteration] = None
        for trace in reference.iterations:
            active = trace.active_vertices
            if item is not None and repeats_previous(
                (item.active_vertices,), (active,)
            ):
                item = replace(item, num_updates=trace.num_updates)
            else:
                with profiler.timer("analytic.workload_build"):
                    src, dst, _ = gather_frontier_edges(graph, active)
                item = WorkloadIteration(active, src, dst, trace.num_updates)
            yield item

    return replay(
        graph,
        workload(),
        systems,
        program.name,
        program.monotonic,
        reference.properties,
    )
