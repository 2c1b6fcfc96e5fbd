"""ScalaGraph timing-model tests: invariants and the paper's knob effects."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.algorithms import BFS, ConnectedComponents, PageRank, run_reference
from repro.algorithms.reference import ReferenceResult, gather_frontier_edges
from repro.core import Profiler, ScalaGraph, ScalaGraphConfig
from repro.core.accelerator import WorkloadIteration
from repro.core.config import TimingParams
from repro.errors import CapacityError
from repro.faults import FaultConfig, FaultSchedule
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat_graph
from repro.memory.spd import ScratchpadConfig
from repro.noc.topology import MeshTopology


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(10, edge_factor=16, seed=11, name="bench")


@pytest.fixture(scope="module")
def pr_reference(graph):
    return run_reference(PageRank(max_iters=6), graph)


def run_pr(config, graph, pr_reference, **kwargs):
    return ScalaGraph(config, **kwargs).run(
        PageRank(max_iters=6), graph, reference=pr_reference
    )


class TestReportInvariants:
    def test_gold_properties(self, graph, pr_reference):
        report = run_pr(ScalaGraphConfig(), graph, pr_reference)
        assert np.array_equal(report.properties, pr_reference.properties)

    def test_metadata(self, graph, pr_reference):
        report = run_pr(ScalaGraphConfig(), graph, pr_reference)
        assert report.accelerator == "ScalaGraph-512"
        assert report.num_pes == 512
        assert report.frequency_mhz == 250.0
        assert report.num_vertices == graph.num_vertices
        assert report.total_edges_traversed == pr_reference.total_edges_traversed

    def test_positive_cycles_and_gteps(self, graph, pr_reference):
        report = run_pr(ScalaGraphConfig(), graph, pr_reference)
        assert report.total_cycles > 0
        assert report.gteps > 0
        assert 0 < report.pe_utilization <= 1
        assert 0 < report.scatter_utilization <= 1

    def test_iteration_accounting(self, graph, pr_reference):
        report = run_pr(ScalaGraphConfig(), graph, pr_reference)
        assert len(report.iterations) == pr_reference.num_iterations
        total = sum(i.cycles for i in report.iterations)
        assert total == pytest.approx(report.total_cycles)

    def test_offchip_traffic_recorded(self, graph, pr_reference):
        report = run_pr(ScalaGraphConfig(), graph, pr_reference)
        # At least the edge stream flows every iteration.
        assert report.total_offchip_bytes >= (
            graph.num_edges * 4 * pr_reference.num_iterations
        )

    def test_power_attached(self, graph, pr_reference):
        report = run_pr(ScalaGraphConfig(), graph, pr_reference)
        assert report.power_watts > 0
        assert report.energy_joules > 0

    def test_summary_string(self, graph, pr_reference):
        text = run_pr(ScalaGraphConfig(), graph, pr_reference).summary()
        assert "ScalaGraph-512" in text and "GTEPS" in text


class TestScalingBehaviour:
    def test_more_pes_never_slower(self, graph, pr_reference):
        prev = None
        for pes in (32, 128, 512):
            report = run_pr(
                ScalaGraphConfig().with_pes(pes), graph, pr_reference
            )
            if prev is not None:
                assert report.gteps >= prev
            prev = report.gteps

    def test_scaling_is_substantial(self, graph, pr_reference):
        """Figure 21: near-linear scaling regime — 16x PEs should buy
        well over 4x throughput on PageRank."""
        small = run_pr(ScalaGraphConfig().with_pes(32), graph, pr_reference)
        large = run_pr(ScalaGraphConfig().with_pes(512), graph, pr_reference)
        assert large.gteps / small.gteps > 4.0

    def test_memory_bound_with_unbounded_bandwidth_relaxed(self, graph, pr_reference):
        """Figure 21's >=1024-PE study: with ample bandwidth the 1024-PE
        instance keeps scaling."""
        from repro.memory.hbm import HBMConfig

        bounded = run_pr(
            ScalaGraphConfig().with_pes(1024), graph, pr_reference
        )
        unbounded = run_pr(
            ScalaGraphConfig(hbm=HBMConfig.unbounded()).with_pes(1024),
            graph,
            pr_reference,
        )
        assert unbounded.gteps >= bounded.gteps


class TestOptimizationKnobs:
    def test_aggregation_helps(self, graph, pr_reference):
        on = run_pr(ScalaGraphConfig(), graph, pr_reference)
        off = run_pr(
            ScalaGraphConfig(aggregation_registers=0), graph, pr_reference
        )
        assert on.gteps > off.gteps
        assert on.total_coalesced > 0
        assert off.total_coalesced == 0

    def test_aggregation_monotone_in_registers(self, graph, pr_reference):
        gteps = [
            run_pr(
                ScalaGraphConfig(aggregation_registers=r), graph, pr_reference
            ).gteps
            for r in (0, 4, 16)
        ]
        assert gteps == sorted(gteps)

    def test_degree_aware_scheduling_helps(self, graph, pr_reference):
        packed = run_pr(ScalaGraphConfig(), graph, pr_reference)
        baseline = run_pr(
            ScalaGraphConfig(degree_aware_window=1), graph, pr_reference
        )
        assert packed.gteps >= baseline.gteps

    def test_pipelining_helps_monotonic_algorithms(self, graph):
        program = ConnectedComponents()
        ref = run_reference(program, graph)
        on = ScalaGraph(ScalaGraphConfig()).run(program, graph, reference=ref)
        off = ScalaGraph(
            ScalaGraphConfig(inter_phase_pipelining=False)
        ).run(program, graph, reference=ref)
        assert on.gteps > off.gteps
        assert on.extra["pipelining_used"] == 1.0
        assert sum(i.overlap_cycles for i in on.iterations) > 0

    def test_pipelining_disabled_for_pagerank(self, graph, pr_reference):
        """Section IV-D: non-monotonic algorithms must not pipeline."""
        report = run_pr(ScalaGraphConfig(), graph, pr_reference)
        assert report.extra["pipelining_used"] == 0.0
        assert all(i.overlap_cycles == 0 for i in report.iterations)

    def test_pipelining_disabled_when_partitioned(self, graph):
        """Section V-D: partitioned graphs gain little, so the model
        disables the overlap entirely across partitions."""
        spd = ScratchpadConfig(total_bytes=graph.num_vertices * 2)
        program = ConnectedComponents()
        ref = run_reference(program, graph)
        report = ScalaGraph(ScalaGraphConfig(spd=spd)).run(
            program, graph, reference=ref
        )
        assert report.num_partitions > 1
        assert report.extra["pipelining_used"] == 0.0


class TestMappings:
    def test_rom_beats_som(self, graph, pr_reference):
        rom = run_pr(ScalaGraphConfig(), graph, pr_reference)
        som = run_pr(ScalaGraphConfig(mapping="som"), graph, pr_reference)
        assert rom.gteps > som.gteps
        assert rom.total_noc_hops < som.total_noc_hops

    def test_dom_capacity_error(self, graph, pr_reference):
        """Section V-C: DOM's O(N*K) replicas exceed on-chip capacity —
        here 1,024 vertices x 512 PEs against a 1 MB scratchpad."""
        spd = ScratchpadConfig(total_bytes=1 << 20)
        with pytest.raises(CapacityError):
            run_pr(
                ScalaGraphConfig(mapping="dom", spd=spd), graph, pr_reference
            )

    def test_dom_allowed_with_infinite_memory(self, graph, pr_reference):
        report = ScalaGraph(
            ScalaGraphConfig(mapping="dom"), enforce_capacity=False
        ).run(PageRank(max_iters=6), graph, reference=pr_reference)
        assert report.total_noc_messages == 0  # scatter all-local


class TestPartitionedExecution:
    def test_partition_count(self, graph):
        spd = ScratchpadConfig(total_bytes=graph.num_vertices * 4)
        report = ScalaGraph(ScalaGraphConfig(spd=spd)).run(
            BFS(), graph
        )
        assert report.num_partitions == 2

    def test_partitioning_never_free(self, graph, pr_reference):
        whole = run_pr(ScalaGraphConfig(), graph, pr_reference)
        spd = ScratchpadConfig(total_bytes=graph.num_vertices * 2)
        sliced = run_pr(ScalaGraphConfig(spd=spd), graph, pr_reference)
        assert sliced.total_cycles >= whole.total_cycles

    def test_functional_result_independent_of_partitioning(self, graph):
        spd = ScratchpadConfig(total_bytes=graph.num_vertices * 2)
        a = ScalaGraph(ScalaGraphConfig()).run(BFS(), graph)
        b = ScalaGraph(ScalaGraphConfig(spd=spd)).run(BFS(), graph)
        assert np.array_equal(a.properties, b.properties)


class TestTimingParams:
    def test_higher_overhead_slower(self, graph, pr_reference):
        fast = run_pr(
            ScalaGraphConfig(timing=TimingParams(phase_overhead_cycles=16)),
            graph,
            pr_reference,
        )
        slow = run_pr(
            ScalaGraphConfig(timing=TimingParams(phase_overhead_cycles=512)),
            graph,
            pr_reference,
        )
        assert slow.total_cycles > fast.total_cycles

    def test_wider_links_never_slower(self, graph, pr_reference):
        narrow = run_pr(
            ScalaGraphConfig(
                timing=TimingParams(noc_link_updates_per_cycle=1)
            ),
            graph,
            pr_reference,
        )
        wide = run_pr(
            ScalaGraphConfig(
                timing=TimingParams(noc_link_updates_per_cycle=16)
            ),
            graph,
            pr_reference,
        )
        assert wide.total_cycles <= narrow.total_cycles


def _per_iteration_fields(stats):
    """An iteration's stats without its position in the run."""
    fields = asdict(stats)
    del fields["index"], fields["overlap_cycles"]
    return fields


class TestRepeatedFrontierReuse:
    """PageRank repeats one all-active frontier for 20 iterations: each
    partition's phase terms are modelled once, and every iteration's
    stats still equal those of that iteration run alone."""

    @pytest.fixture(scope="class")
    def standin(self):
        return load_dataset("PK", scale_shift=-5)

    @pytest.fixture(scope="class")
    def reference(self, standin):
        reference = run_reference(PageRank(), standin)
        assert reference.num_iterations == 20
        return reference

    @staticmethod
    def build(graph, sliced, faulted=False, profiler=None):
        config = ScalaGraphConfig()
        if sliced:  # four partitions
            config = ScalaGraphConfig(
                spd=ScratchpadConfig(total_bytes=graph.num_vertices * 2)
            )
        faults = None
        if faulted:
            faults = FaultSchedule(
                MeshTopology(config.pe_rows, config.total_cols),
                FaultConfig(seed=2, link_outages=3, hbm_disabled_channels=16),
            )
        return ScalaGraph(config, profiler=profiler, faults=faults)

    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("sliced", [False, True])
    def test_iterations_equal_running_alone(
        self, standin, reference, sliced, faulted
    ):
        report = self.build(standin, sliced, faulted).run(
            PageRank(), standin, reference=reference
        )
        assert report.num_partitions == (4 if sliced else 1)
        for trace, stats in zip(reference.iterations, report.iterations):
            alone = self.build(standin, sliced, faulted).run(
                PageRank(),
                standin,
                reference=ReferenceResult(reference.properties, [trace]),
            )
            assert _per_iteration_fields(stats) == _per_iteration_fields(
                alone.iterations[0]
            )
        if faulted:
            clean = self.build(standin, sliced).run(
                PageRank(), standin, reference=reference
            )
            assert report.extra["degraded_cycles"] == max(
                0.0, report.total_cycles - clean.total_cycles
            )

    @pytest.mark.parametrize("sliced", [False, True])
    def test_each_partition_modelled_once(self, standin, reference, sliced):
        profiler = Profiler()
        report = self.build(standin, sliced, profiler=profiler).run(
            PageRank(), standin, reference=reference
        )
        partitions = report.num_partitions
        timers = profiler.to_dict()["timers"]
        assert timers["analytic.scatter_model"]["calls"] == partitions
        assert timers["analytic.apply_model"]["calls"] == 20 * partitions
        assert profiler.counter("analytic.scatter_phases") == 20 * partitions
        assert profiler.counter("analytic.scatter_phases_reused") == (
            19 * partitions
        )

    def test_trace_repeats_only_when_edges_repeat(self, standin):
        """`run_trace` workloads may share a frontier but not its edges
        (DOBFS pull phases): such an iteration is modelled afresh."""
        active = np.arange(standin.num_vertices, dtype=np.int64)
        src, dst, _ = gather_frontier_edges(standin, active)
        half = src.size // 2
        workload = [
            WorkloadIteration(active, src, dst, 10),
            WorkloadIteration(active, src[:half], dst[:half], 10),
            WorkloadIteration(active, src[:half], dst[:half], 20),
        ]
        profiler = Profiler()
        report = self.build(standin, sliced=False, profiler=profiler).run_trace(
            standin, workload
        )
        assert profiler.counter("analytic.scatter_phases_reused") == 1
        for item, stats in zip(workload, report.iterations):
            alone = self.build(standin, sliced=False).run_trace(
                standin, [item]
            )
            assert _per_iteration_fields(stats) == _per_iteration_fields(
                alone.iterations[0]
            )
