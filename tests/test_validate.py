"""Validation-utility tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.core import ScalaGraph, ScalaGraphConfig
from repro.core.cycle_sim import CycleStats
from repro.graph.generators import rmat_graph
from repro.validate import (
    scatter_cycles_vs_model,
    validate_report,
    validate_timing_envelope,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, edge_factor=6, seed=1)


class TestValidateReport:
    def test_valid_report_passes(self, graph):
        report = ScalaGraph(ScalaGraphConfig()).run(BFS(), graph)
        result = validate_report(report, BFS(), graph)
        assert result.ok, result.detail

    def test_corrupted_properties_fail(self, graph):
        report = ScalaGraph(ScalaGraphConfig()).run(BFS(), graph)
        report.properties = report.properties.copy()
        report.properties[0] = 99.0
        result = validate_report(report, BFS(), graph)
        assert not result.ok
        assert "differ" in result.detail

    def test_missing_properties_fail(self, graph):
        report = ScalaGraph(ScalaGraphConfig()).run(BFS(), graph)
        report.properties = None
        assert not validate_report(report, BFS(), graph).ok

    def test_wrong_program_fails(self, graph):
        report = ScalaGraph(ScalaGraphConfig()).run(BFS(root=0), graph)
        result = validate_report(report, BFS(root=1), graph)
        assert not result.ok

    def test_float_program_with_tolerance(self, graph):
        report = ScalaGraph(ScalaGraphConfig()).run(
            PageRank(max_iters=4), graph
        )
        assert validate_report(
            report, PageRank(max_iters=4), graph, max_iterations=4
        ).ok


class TestScatterCyclesVsModel:
    def test_overhead_removed_and_each_phase_floored(self):
        config = ScalaGraphConfig()
        overhead = config.timing.phase_overhead_cycles
        stats = CycleStats(scatter_cycles=[30, 5])
        report = SimpleNamespace(
            iterations=[
                SimpleNamespace(scatter_cycles=overhead + 40.0),
                SimpleNamespace(scatter_cycles=overhead - 3.0),
            ]
        )
        assert scatter_cycles_vs_model(config, stats, report) == (35, 41.0)


class TestTimingEnvelope:
    def test_default_config_within_envelope(self, graph):
        result = validate_timing_envelope(PageRank(max_iters=2), graph,
                                          max_iterations=2)
        assert result.ok, result.detail

    def test_bfs_within_envelope(self, graph):
        result = validate_timing_envelope(BFS(), graph)
        assert result.ok, result.detail

    def test_tight_ratio_fails(self, graph):
        result = validate_timing_envelope(
            PageRank(max_iters=2), graph, max_ratio=1.0001,
            max_iterations=2,
        )
        assert not result.ok
