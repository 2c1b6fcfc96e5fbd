"""Baseline model tests: GraphDynS, AccuGraph, Gunrock."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank, run_reference
from repro.algorithms.reference import ReferenceResult
from repro.baselines import (
    AccuGraph,
    CrossbarAccelerator,
    CrossbarAcceleratorConfig,
    GraphDynS,
    Gunrock,
    GunrockConfig,
)
from repro.baselines import gunrock as gunrock_module
from repro.errors import ConfigurationError, SynthesisError
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat_graph
from repro.memory.request import cachelines_touched
from repro.memory.spd import MB, ScratchpadConfig


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(10, edge_factor=16, seed=11, name="bench")


@pytest.fixture(scope="module")
def pr_reference(graph):
    return run_reference(PageRank(max_iters=6), graph)


class TestGraphDynS:
    def test_default_is_128_at_100mhz(self):
        """Section V-A: 128 PEs, 128-radix crossbar, 100 MHz."""
        gd = GraphDynS()
        assert gd.config.num_pes == 128
        assert gd.config.clock_mhz == 100.0
        assert gd.config.with_crossbar

    def test_512_is_four_tiles(self):
        gd = GraphDynS.with_512_pes()
        assert gd.config.num_pes == 512
        assert gd.config.num_tiles == 4
        assert gd.config.pes_per_tile == 128

    def test_runs_and_matches_reference(self, graph, pr_reference):
        report = GraphDynS().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert np.array_equal(report.properties, pr_reference.properties)
        assert report.accelerator == "GraphDynS-128"
        assert report.gteps > 0

    def test_512_faster_than_128(self, graph, pr_reference):
        small = GraphDynS.with_128_pes().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        large = GraphDynS.with_512_pes().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert large.gteps > small.gteps

    def test_512_sublinear_due_to_inter_tile_traffic(self, graph, pr_reference):
        """Section V-B: GraphDynS-512 is bottlenecked by tile-to-tile
        communication, so 4x PEs buys well under 4x throughput."""
        small = GraphDynS.with_128_pes().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        large = GraphDynS.with_512_pes().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert large.gteps / small.gteps < 3.0

    def test_scaling_variant_uses_crossbar_frequency(self):
        gd = GraphDynS.with_pes(64)
        assert gd.config.clock_mhz == pytest.approx(227.0)

    def test_route_failure_beyond_128(self):
        """Constructing a >128-PE single-crossbar design fails outright,
        like the synthesis tool's route failure (Section II-B)."""
        with pytest.raises(SynthesisError):
            GraphDynS.with_pes(256)

    def test_crossbar_free_variant_holds_300mhz(self):
        gd = GraphDynS.with_pes(256, with_crossbar=False)
        assert gd.config.clock_mhz == 300.0

    def test_max_throughput_cap(self, graph, pr_reference):
        """128 PEs at 100 MHz cannot exceed 12.8 GTEPS."""
        report = GraphDynS().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert report.gteps <= 12.8


class TestAccuGraph:
    def test_runs(self, graph, pr_reference):
        report = AccuGraph().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert report.gteps > 0
        assert report.accelerator == "AccuGraph-128"

    def test_inferior_to_graphdyns(self, graph, pr_reference):
        """Section V-A: AccuGraph 'is consistently inferior to
        GraphDyns'."""
        accu = AccuGraph.with_pes(128, frequency_mhz=100.0).run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        gd = GraphDynS().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert accu.gteps <= gd.gteps


class TestCrossbarConfig:
    def test_rejects_bad(self):
        with pytest.raises(ConfigurationError):
            CrossbarAcceleratorConfig(num_pes=0)
        with pytest.raises(ConfigurationError):
            CrossbarAcceleratorConfig(num_pes=100, num_tiles=3)
        with pytest.raises(ConfigurationError):
            CrossbarAcceleratorConfig(vector_width=0)


class TestCrossbarConflictBound:
    @pytest.mark.parametrize("with_crossbar", [True, False])
    def test_one_output_serialises(self, with_crossbar):
        """Updates that all target one partition (``dst % PEs`` equal)
        meet at one crossbar output, which absorbs ``vector_width`` per
        cycle; the crossbar-free variant charges no conflict."""
        num_pes, updates = 128, 512
        model = GraphDynS.with_pes(
            num_pes, frequency_mhz=100.0, with_crossbar=with_crossbar
        )
        dst = np.arange(updates, dtype=np.int64) * num_pes + 5
        src = np.zeros(updates, dtype=np.int64)
        phase = model._scatter_phase(np.zeros(1, dtype=np.int64), src, dst)
        expected = updates / model.config.vector_width if with_crossbar else 0
        assert phase.spd == expected


class TestGunrock:
    def test_runs_and_matches_reference(self, graph, pr_reference):
        report = Gunrock().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert np.array_equal(report.properties, pr_reference.properties)
        assert report.accelerator == "Gunrock-V100"
        assert report.gteps > 0

    def test_power_is_v100(self, graph, pr_reference):
        report = Gunrock().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert report.power_watts == 160.0

    def test_bandwidth_scales_throughput(self, graph, pr_reference):
        slow = Gunrock(GunrockConfig(peak_bandwidth_gbs=100.0)).run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        fast = Gunrock(GunrockConfig(peak_bandwidth_gbs=2000.0)).run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert fast.gteps > slow.gteps

    def test_launch_overhead_hurts_bfs_most(self, graph):
        """High-iteration-count algorithms pay the per-launch cost."""
        bfs_ref = run_reference(BFS(), graph)
        cheap = Gunrock(GunrockConfig(kernel_launch_us=0.0)).run(
            BFS(), graph, reference=bfs_ref
        )
        dear = Gunrock(GunrockConfig(kernel_launch_us=50.0)).run(
            BFS(), graph, reference=bfs_ref
        )
        assert cheap.gteps > 2 * dear.gteps

    def test_atomic_stalls_slow_it_down(self, graph, pr_reference):
        none = Gunrock(GunrockConfig(atomic_stall_factor=1.0)).run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        heavy = Gunrock(GunrockConfig(atomic_stall_factor=1.5)).run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        assert none.gteps > heavy.gteps

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            GunrockConfig(bandwidth_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            GunrockConfig(l2_hit_rate=1.5)
        with pytest.raises(ConfigurationError):
            GunrockConfig(atomic_stall_factor=0.5)


class TestPaperHeadlineShapes:
    """Loose end-to-end checks of the Figure 14 ordering."""

    def test_ordering_on_pagerank(self, graph, pr_reference):
        from repro.core import ScalaGraph, ScalaGraphConfig

        gunrock = Gunrock().run(PageRank(max_iters=6), graph, reference=pr_reference)
        gd128 = GraphDynS().run(PageRank(max_iters=6), graph, reference=pr_reference)
        gd512 = GraphDynS.with_512_pes().run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        sg512 = ScalaGraph(ScalaGraphConfig()).run(
            PageRank(max_iters=6), graph, reference=pr_reference
        )
        # ScalaGraph-512 beats everything; GraphDynS-512 beats GraphDynS-128.
        assert sg512.gteps > gd512.gteps > gd128.gteps
        assert sg512.gteps > gunrock.gteps


class TestFigure4Builders:
    @pytest.mark.parametrize("cls", [GraphDynS, AccuGraph])
    def test_scaling_variants_use_4mb_scratchpad(self, cls):
        """The Figure 4 prototypes have 4 MB of BRAM (Section II-B)."""
        assert cls.with_pes(64).config.spd == ScratchpadConfig(
            total_bytes=4 * MB
        )

    def test_graphdyns_comparison_points_keep_default(self):
        assert GraphDynS.with_128_pes().config.spd == ScratchpadConfig()
        assert GraphDynS.with_512_pes().config.spd == ScratchpadConfig()


def _per_iteration_fields(stats):
    """An iteration's stats without its position in the run."""
    fields = asdict(stats)
    del fields["index"], fields["overlap_cycles"]
    return fields


_CROSSBARS = {"GraphDynS-512": GraphDynS.with_512_pes, "AccuGraph": AccuGraph}


def _crossbar(name, spd):
    model = _CROSSBARS[name]()
    if spd is not None:
        model = type(model)(replace(model.config, spd=spd))
    return model


class TestRepeatedFrontierReuse:
    """PageRank repeats one all-active frontier for 20 iterations: the
    baselines model it once per partition, and every iteration's stats
    still equal those of that iteration run alone."""

    @pytest.fixture(scope="class")
    def standin(self):
        return load_dataset("PK", scale_shift=-5)

    @pytest.fixture(scope="class")
    def reference(self, standin):
        reference = run_reference(PageRank(), standin)
        assert reference.num_iterations == 20
        return reference

    @staticmethod
    def spd(graph, sliced):
        # A quarter of the vertices fit: four partitions.
        if sliced:
            return ScratchpadConfig(total_bytes=graph.num_vertices * 2)
        return None

    @staticmethod
    def assert_equal_alone(build, graph, reference):
        report = build().run(PageRank(), graph, reference=reference)
        for trace, stats in zip(reference.iterations, report.iterations):
            alone = build().run(
                PageRank(),
                graph,
                reference=ReferenceResult(reference.properties, [trace]),
            )
            assert _per_iteration_fields(stats) == _per_iteration_fields(
                alone.iterations[0]
            )
        return report

    @pytest.mark.parametrize("sliced", [False, True])
    @pytest.mark.parametrize("name", ["GraphDynS-512", "AccuGraph"])
    def test_crossbar_iterations_equal_running_alone(
        self, standin, reference, name, sliced
    ):
        spd = self.spd(standin, sliced)
        report = self.assert_equal_alone(
            lambda: _crossbar(name, spd), standin, reference
        )
        assert report.num_partitions == (4 if sliced else 1)

    def test_gunrock_iterations_equal_running_alone(self, standin, reference):
        self.assert_equal_alone(Gunrock, standin, reference)

    @pytest.mark.parametrize("sliced", [False, True])
    @pytest.mark.parametrize("name", ["GraphDynS-512", "AccuGraph"])
    def test_crossbar_models_each_partition_once(
        self, standin, reference, name, sliced, monkeypatch
    ):
        calls = []
        scatter_phase = CrossbarAccelerator._scatter_phase

        def counting(self, *args):
            calls.append(args)
            return scatter_phase(self, *args)

        monkeypatch.setattr(CrossbarAccelerator, "_scatter_phase", counting)
        report = _crossbar(name, self.spd(standin, sliced)).run(
            PageRank(), standin, reference=reference
        )
        assert len(calls) == report.num_partitions

    def test_gunrock_counts_sectors_once(self, standin, reference, monkeypatch):
        calls = []

        def counting(addresses, line_size):
            calls.append(addresses)
            return cachelines_touched(addresses, line_size)

        monkeypatch.setattr(gunrock_module, "cachelines_touched", counting)
        Gunrock().run(PageRank(), standin, reference=reference)
        assert len(calls) == 1
