"""System registry and matrix runner for the paper's experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import make_algorithm
from repro.algorithms.reference import run_reference
from repro.baselines import GraphDynS, Gunrock
from repro.core import ScalaGraph, ScalaGraphConfig
from repro.core.stats import SimulationReport
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASET_ORDER, load_dataset

#: Orders used by the paper's figures.
GRAPH_ORDER: Tuple[str, ...] = DATASET_ORDER
ALGORITHM_ORDER: Tuple[str, ...] = ("bfs", "sssp", "cc", "pagerank")

#: The systems of Figure 14/15, by their figure labels.
SYSTEM_BUILDERS: Dict[str, Callable[[], object]] = {
    "Gunrock": Gunrock,
    "GraphDynS-128": GraphDynS.with_128_pes,
    "GraphDynS-512": GraphDynS.with_512_pes,
    "ScalaGraph-128": lambda: ScalaGraph(ScalaGraphConfig(pe_cols=4)),
    "ScalaGraph-512": lambda: ScalaGraph(ScalaGraphConfig()),
}

SYSTEM_ORDER: Tuple[str, ...] = tuple(SYSTEM_BUILDERS)


def build_system(label: str):
    """Instantiate a compared system by its figure label."""
    if label not in SYSTEM_BUILDERS:
        raise KeyError(
            f"unknown system {label!r}; known: {sorted(SYSTEM_BUILDERS)}"
        )
    return SYSTEM_BUILDERS[label]()


#: Algorithms that read edge weights (Section V-A weights SSSP's graphs;
#: the SSWP/SpMV extensions need them too).
WEIGHTED_ALGORITHMS = frozenset({"sssp", "sswp", "spmv"})


def load_benchmark_graph(
    name: str, algorithm: str, scale_shift: int = 0
) -> CSRGraph:
    """A dataset stand-in, weighted when the algorithm needs it."""
    return load_dataset(
        name,
        scale_shift=scale_shift,
        weighted=(algorithm.lower() in WEIGHTED_ALGORITHMS),
    )


@dataclass
class ExperimentMatrix:
    """Results of a (graph x algorithm x system) sweep.

    ``reports[(graph, algorithm, system)]`` holds the full
    :class:`SimulationReport`; helper methods slice it the way the
    paper's figures do.
    """

    reports: Dict[Tuple[str, str, str], SimulationReport] = field(
        default_factory=dict
    )

    def gteps(self, graph: str, algorithm: str, system: str) -> float:
        return self.reports[(graph, algorithm, system)].gteps

    def systems(self) -> List[str]:
        seen: List[str] = []
        for _, _, system in self.reports:
            if system not in seen:
                seen.append(system)
        return seen

    def cells(self) -> List[Tuple[str, str]]:
        seen: List[Tuple[str, str]] = []
        for graph, algorithm, _ in self.reports:
            if (graph, algorithm) not in seen:
                seen.append((graph, algorithm))
        return seen

    def speedup(self, numerator: str, denominator: str) -> float:
        """Geometric-mean GTEPS ratio over all (graph, algorithm) cells."""
        ratios = [
            self.gteps(g, a, numerator) / self.gteps(g, a, denominator)
            for g, a in self.cells()
        ]
        return geometric_mean(ratios)

    def speedup_by_algorithm(
        self, numerator: str, denominator: str
    ) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for algorithm in {a for _, a in self.cells()}:
            ratios = [
                self.gteps(g, a, numerator) / self.gteps(g, a, denominator)
                for g, a in self.cells()
                if a == algorithm
            ]
            out[algorithm] = geometric_mean(ratios)
        return out


def execute_cell(
    graph_name: str,
    algorithm_name: str,
    systems: Sequence[str],
    scale_shift: int = 0,
    max_iterations: Optional[int] = None,
) -> List[Tuple[str, SimulationReport]]:
    """Run the given systems on one (graph, algorithm) cell.

    The functional reference execution is computed once and shared by
    all systems, so a cell's cost is dominated by the timing models.
    This is the unit of work both the serial and the parallel runner
    fan out (the arguments are all picklable primitives, so it can
    cross a process boundary).
    """
    graph = load_benchmark_graph(graph_name, algorithm_name, scale_shift)
    program = make_algorithm(algorithm_name)
    reference = run_reference(program, graph, max_iterations)
    return [
        (
            system_label,
            build_system(system_label).run(
                program, graph, reference=reference
            ),
        )
        for system_label in systems
    ]


def cached_cell(
    graph_name: str,
    algorithm_name: str,
    systems: Sequence[str],
    scale_shift: int = 0,
    max_iterations: Optional[int] = None,
    cache=None,
    refresh: bool = False,
) -> List[Tuple[str, SimulationReport, bool]]:
    """Each system's report for one cell, through the result cache.

    Returns ``(system, report, cached)`` in ``systems`` order, where
    ``cached`` says the report was a cache hit.  The systems that miss
    run in one :func:`execute_cell` call and are written back at once.

    Args:
        cache: optional :class:`~repro.experiments.store.ResultCache`;
            without one every system is computed.
        refresh: recompute every system even when cached (the cache is
            then overwritten with the fresh results).
    """
    hits: Dict[str, SimulationReport] = {}
    if cache is not None and not refresh:
        for system_label in systems:
            report = cache.get(
                graph_name,
                algorithm_name,
                system_label,
                scale_shift,
                max_iterations,
            )
            if report is not None:
                hits[system_label] = report
    missing = [label for label in systems if label not in hits]
    fresh: Dict[str, SimulationReport] = {}
    if missing:
        for system_label, report in execute_cell(
            graph_name, algorithm_name, missing, scale_shift, max_iterations
        ):
            if cache is not None:
                cache.put(
                    graph_name,
                    algorithm_name,
                    system_label,
                    report,
                    scale_shift,
                    max_iterations,
                )
            fresh[system_label] = report
    return [
        (label, hits[label], True)
        if label in hits
        else (label, fresh[label], False)
        for label in systems
    ]


def run_matrix(
    graphs: Sequence[str] = GRAPH_ORDER,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    systems: Sequence[str] = SYSTEM_ORDER,
    scale_shift: int = 0,
    max_iterations: Optional[int] = None,
    cache=None,
    refresh: bool = False,
) -> ExperimentMatrix:
    """Run every system on every (graph, algorithm) cell, serially.

    Each cell goes through :func:`cached_cell` (``cache`` and
    ``refresh`` are its arguments), so the matrix comes back in nominal
    order whichever cells were cached.

    See :func:`repro.experiments.parallel.run_matrix_parallel` for the
    multi-process variant; both produce identical matrices.
    """
    matrix = ExperimentMatrix()
    for graph_name in graphs:
        for algorithm_name in algorithms:
            for system_label, report, _ in cached_cell(
                graph_name,
                algorithm_name,
                systems,
                scale_shift,
                max_iterations,
                cache,
                refresh,
            ):
                matrix.reports[
                    (graph_name, algorithm_name, system_label)
                ] = report
    return matrix


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional average for speedup ratios)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
