"""The one iteration driver: one walk per cell feeds every system."""

import numpy as np
import pytest

import repro.core.replay as replay_module
from repro.algorithms import BFS, make_algorithm, run_reference
from repro.core import ScalaGraph, ScalaGraphConfig
from repro.core.replay import PhaseModel, WorkloadIteration, replay_reference
from repro.experiments import build_system, execute_cell, load_benchmark_graph
from repro.experiments.runner import SYSTEM_ORDER
from repro.faults import FaultConfig, FaultSchedule
from repro.graph.partition import Partition
from repro.noc.topology import MeshTopology

SCALE_SHIFT = -6


def _as_dict(report):
    return report.to_dict(include_iterations=True)


def _faulted():
    config = ScalaGraphConfig()
    return ScalaGraph(
        config,
        faults=FaultSchedule(
            MeshTopology(config.pe_rows, config.total_cols),
            FaultConfig(seed=2, link_outages=3, hbm_disabled_channels=16),
        ),
    )


class TestOneWalkEqualsRunningAlone:
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "cc", "pagerank"])
    def test_cell_equals_each_system_alone(self, algorithm):
        cell = execute_cell("LJ", algorithm, SYSTEM_ORDER, SCALE_SHIFT)
        assert [label for label, _ in cell] == list(SYSTEM_ORDER)
        graph = load_benchmark_graph("LJ", algorithm, SCALE_SHIFT)
        program = make_algorithm(algorithm)
        reference = run_reference(program, graph)
        for label, report in cell:
            alone = build_system(label).run(
                program, graph, reference=reference
            )
            assert _as_dict(report) == _as_dict(alone), label

    @pytest.mark.parametrize("algorithm", ["bfs", "pagerank"])
    def test_faulted_scalagraph_walks_with_the_others(self, algorithm):
        """The faulted model and its clean twin join the same walk."""
        graph = load_benchmark_graph("LJ", algorithm, SCALE_SHIFT)
        program = make_algorithm(algorithm)
        reference = run_reference(program, graph)

        def systems():
            return [_faulted()] + [build_system(l) for l in SYSTEM_ORDER]

        together = replay_reference(program, graph, reference, systems())
        assert together[0].extra["degraded_cycles"] > 0
        for report, system in zip(together, systems()):
            alone = system.run(program, graph, reference=reference)
            assert _as_dict(report) == _as_dict(alone)


class TestOneGatherPerFrontier:
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
    def test_cell_gathers_each_changed_frontier_once(
        self, algorithm, monkeypatch
    ):
        calls = []
        gather = replay_module.gather_frontier_edges

        def counting(graph, active):
            calls.append(active)
            return gather(graph, active)

        monkeypatch.setattr(replay_module, "gather_frontier_edges", counting)
        graph = load_benchmark_graph("LJ", algorithm, SCALE_SHIFT)
        reference = run_reference(make_algorithm(algorithm), graph)
        frontiers = [t.active_vertices for t in reference.iterations]
        changed = 1 + sum(
            not np.array_equal(a, b) for a, b in zip(frontiers, frontiers[1:])
        )
        assert changed > 2
        execute_cell("LJ", algorithm, SYSTEM_ORDER, SCALE_SHIFT)
        assert len(calls) == changed


class _WritingModel(PhaseModel):
    """A model that (wrongly) writes the frontier it is handed."""

    def __init__(self, graph):
        super().__init__(None, [Partition(0, 0, graph.num_vertices)])

    def frontier(self, active, edges):
        edges.dst[:] = 0

    def iteration(self, index, step, terms):
        raise AssertionError("unreachable: frontier() raised")

    def report(self, graph, run):
        raise AssertionError("unreachable: frontier() raised")


class _WritingSystem:
    def phase_model(self, graph):
        return _WritingModel(graph)


class TestReadOnlyInputs:
    def test_writing_model_raises(self, tiny_graph):
        src = tiny_graph.edge_sources()
        dst = tiny_graph.indices.copy()
        workload = [WorkloadIteration(np.arange(3), src, dst, 1)]
        with pytest.raises(ValueError, match="read-only"):
            replay_module.replay(tiny_graph, workload, [_WritingSystem()])
        # The model saw a view: the caller's own array stays writable
        # and unchanged.
        assert dst.flags.writeable
        assert np.array_equal(dst, tiny_graph.indices)

    def test_writing_model_raises_on_partitioned_edges(self, tiny_graph):
        class Sliced(_WritingModel):
            def __init__(self, graph):
                PhaseModel.__init__(
                    self, None, [Partition(0, 0, 2), Partition(1, 2, 5)]
                )

        class System:
            def phase_model(self, graph):
                return Sliced(graph)

        src = tiny_graph.edge_sources()
        workload = [
            WorkloadIteration(np.arange(5), src, tiny_graph.indices, 1)
        ]
        with pytest.raises(ValueError, match="read-only"):
            replay_module.replay(tiny_graph, workload, [System()])

    def test_reference_run_leaves_callers_graph_writable(self, tiny_graph):
        indices = tiny_graph.indices.copy()
        ScalaGraph(ScalaGraphConfig()).run(BFS(), tiny_graph)
        assert tiny_graph.indices.flags.writeable
        assert np.array_equal(tiny_graph.indices, indices)
