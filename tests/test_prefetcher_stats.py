"""Unit tests for the prefetcher model and the stats primitives."""

import pytest

from repro.core.prefetcher import PhaseTraffic, Prefetcher
from repro.core.stats import IterationStats, PhaseCycles, SimulationReport
from repro.memory.hbm import HBMConfig, HBMModel


@pytest.fixture
def prefetcher():
    return Prefetcher(HBMModel(HBMConfig(), 250e6), vertex_bytes=8)


class TestPrefetcher:
    def test_apply_traffic(self, prefetcher):
        traffic = prefetcher.apply_traffic(num_updates=50)
        assert traffic.writeback_bytes == 400
        assert traffic.total_bytes == 400

    def test_cycles_proportional_to_bytes(self, prefetcher):
        one = prefetcher.cycles(PhaseTraffic(edge_bytes=1 << 20))
        two = prefetcher.cycles(PhaseTraffic(edge_bytes=2 << 20))
        assert two == pytest.approx(2 * one)

    def test_empty_phase_free(self, prefetcher):
        assert prefetcher.cycles(PhaseTraffic()) == 0.0


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
