"""Unit tests for the prefetchers' HBM streams and the stats primitives."""

import numpy as np
import pytest

from repro.core import ScalaGraph, ScalaGraphConfig
from repro.core.replay import WorkloadIteration
from repro.core.stats import IterationStats, PhaseCycles, SimulationReport
from repro.graph.generators import path_graph


class TestPrefetcher:
    def test_apply_traffic(self):
        """The prefetchers write the new active list back to HBM
        (Section III-A): 50 updates of 8-byte records are 400 B, and
        the Apply phase charges their stream cycles."""
        config = ScalaGraphConfig()
        accel = ScalaGraph(config)
        none = np.empty(0, dtype=np.int64)
        report = accel.run_trace(
            path_graph(4), [WorkloadIteration(none, none, none, 50)]
        )
        (stats,) = report.iterations
        assert stats.offchip_bytes == 400.0
        assert stats.apply_cycles >= (
            accel.hbm.stream_cycles(400) + config.timing.phase_overhead_cycles
        )

    @staticmethod
    def _scatter_stream(accel, num_active, degree):
        active = np.arange(num_active, dtype=np.int64)
        src = np.repeat(active, degree)
        dst = (src * 7 + np.tile(np.arange(degree), num_active)) % (
            2 * num_active
        )
        return accel._scatter_phase(active, src, dst, window=1.0)

    def test_cycles_proportional_to_bytes(self):
        """The prefetchers stream the active records and their edge
        lists (O(N + M), Table II) and only the bandwidth occupancy is
        charged: twice the bytes take twice the memory cycles."""
        accel = ScalaGraph(ScalaGraphConfig())
        one = self._scatter_stream(accel, 1024, 16)
        two = self._scatter_stream(accel, 2048, 16)
        assert one["offchip_bytes"] == 1024 * 8 + 1024 * 16 * 4
        assert two["offchip_bytes"] == 2 * one["offchip_bytes"]
        assert one["cycles"].memory == accel.hbm.stream_cycles(
            one["offchip_bytes"]
        )
        assert two["cycles"].memory == pytest.approx(2 * one["cycles"].memory)

    def test_empty_phase_free(self):
        """A phase that streams nothing costs no memory cycles: an empty
        Scatter and an Apply with no updates move zero bytes."""
        accel = ScalaGraph(ScalaGraphConfig())
        none = np.empty(0, dtype=np.int64)
        scatter = accel._scatter_phase(none, none, none, window=1.0)
        assert scatter["offchip_bytes"] == 0.0
        assert scatter["cycles"].memory == 0.0
        report = accel.run_trace(
            path_graph(4), [WorkloadIteration(none, none, none, 0)]
        )
        (stats,) = report.iterations
        assert stats.offchip_bytes == 0.0


class TestPhaseCycles:
    def test_total_is_max_plus_overhead(self):
        phase = PhaseCycles(compute=10, noc=20, spd=5, memory=15, overhead=3)
        assert phase.total == 23
        assert phase.bottleneck == "noc"

    def test_bottleneck_each_kind(self):
        assert PhaseCycles(9, 1, 1, 1).bottleneck == "compute"
        assert PhaseCycles(1, 9, 1, 1).bottleneck == "noc"
        assert PhaseCycles(1, 1, 9, 1).bottleneck == "spd"
        assert PhaseCycles(1, 1, 1, 9).bottleneck == "memory"

    def test_zero_phase(self):
        assert PhaseCycles(0, 0, 0, 0).total == 0


class TestIterationStats:
    def test_cycles_subtract_overlap(self):
        it = IterationStats(
            index=0,
            num_active=10,
            num_edges=100,
            scatter_cycles=50.0,
            apply_cycles=20.0,
            overlap_cycles=15.0,
        )
        assert it.cycles == 55.0


class TestSimulationReportEdgeCases:
    def _report(self, **kwargs):
        defaults = dict(
            accelerator="Test-1",
            algorithm="bfs",
            graph_name="g",
            num_pes=16,
            frequency_mhz=100.0,
            num_vertices=10,
            num_edges=20,
            total_edges_traversed=20,
            total_cycles=100.0,
        )
        defaults.update(kwargs)
        return SimulationReport(**defaults)

    def test_zero_cycles(self):
        report = self._report(total_cycles=0.0)
        assert report.gteps == 0.0
        assert report.pe_utilization == 0.0

    def test_gteps_formula(self):
        report = self._report()
        # 20 edges in 100 cycles at 100 MHz = 20e6 edges/s.
        assert report.gteps == pytest.approx(0.02)

    def test_utilization_capped_at_one(self):
        report = self._report(total_cycles=0.5)
        assert report.pe_utilization == 1.0

    def test_energy_none_without_power(self):
        assert self._report().energy_joules is None

    def test_scatter_utilization_fallback(self):
        report = self._report()
        assert report.scatter_utilization == report.pe_utilization

    def test_totals_empty_iterations(self):
        report = self._report()
        assert report.total_noc_messages == 0
        assert report.total_coalesced == 0
        assert report.total_offchip_bytes == 0.0
