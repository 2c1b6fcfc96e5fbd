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

    def sort_nominal(
        self,
        graphs: Sequence[str],
        algorithms: Sequence[str],
        systems: Sequence[str],
    ) -> None:
        """Reorder :attr:`reports` into nominal sweep order.

        Insertion order is observable (:meth:`systems` / :meth:`cells`
        preserve it), so runners that fill cells out of order — cache
        hits first, parallel completions as they land — normalise with
        this before returning.  Keys outside the nominal sweep keep
        their relative order at the end.
        """
        ordered: Dict[Tuple[str, str, str], SimulationReport] = {}
        for graph in graphs:
            for algorithm in algorithms:
                for system in systems:
                    key = (graph, algorithm, system)
                    if key in self.reports:
                        ordered[key] = self.reports[key]
        for key, report in self.reports.items():
            if key not in ordered:
                ordered[key] = report
        self.reports = ordered

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

    Args:
        cache: optional :class:`~repro.experiments.store.ResultCache`;
            cells whose key is already cached are loaded instead of
            recomputed, and fresh results are written back.
        refresh: recompute every cell even when cached (the cache is
            then overwritten with the fresh results).

    See :func:`repro.experiments.parallel.run_matrix_parallel` for the
    multi-process variant; both produce identical matrices.
    """
    matrix = ExperimentMatrix()
    for graph_name in graphs:
        for algorithm_name in algorithms:
            missing = list(systems)
            if cache is not None and not refresh:
                missing = []
                for system_label in systems:
                    report = cache.get(
                        graph_name,
                        algorithm_name,
                        system_label,
                        scale_shift=scale_shift,
                        max_iterations=max_iterations,
                    )
                    if report is None:
                        missing.append(system_label)
                    else:
                        matrix.reports[
                            (graph_name, algorithm_name, system_label)
                        ] = report
            if not missing:
                continue
            for system_label, report in execute_cell(
                graph_name,
                algorithm_name,
                missing,
                scale_shift,
                max_iterations,
            ):
                matrix.reports[
                    (graph_name, algorithm_name, system_label)
                ] = report
                if cache is not None:
                    cache.put(
                        graph_name,
                        algorithm_name,
                        system_label,
                        report,
                        scale_shift=scale_shift,
                        max_iterations=max_iterations,
                    )
    if cache is not None:
        # Deterministic key order regardless of which cells were cached.
        matrix.sort_nominal(graphs, algorithms, systems)
    return matrix


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional average for speedup ratios)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
