"""Report-analysis tooling tests."""

import pytest

from repro.algorithms import ConnectedComponents, PageRank, run_reference
from repro.core import ScalaGraph, ScalaGraphConfig
from repro.experiments import (
    bar_chart,
    bottleneck_histogram,
    describe,
    phase_shares,
)
from repro.graph.generators import rmat_graph


@pytest.fixture(scope="module")
def report():
    graph = rmat_graph(9, edge_factor=8, seed=0)
    ref = run_reference(PageRank(max_iters=4), graph)
    return ScalaGraph(ScalaGraphConfig()).run(
        PageRank(max_iters=4), graph, reference=ref
    )


class TestHistogram:
    def test_counts_iterations(self, report):
        histogram = bottleneck_histogram(report)
        assert sum(histogram.values()) == len(report.iterations)
        assert all(
            name in ("compute", "noc", "spd", "memory")
            for name in histogram
        )


class TestShares:
    def test_shares_cover_cycles(self, report):
        shares = phase_shares(report)
        # scatter + apply - hidden == total, so shares minus overlap ~ 1.
        covered = (
            shares["scatter"]
            + shares["apply"]
            - shares["hidden_by_pipelining"]
        )
        assert covered == pytest.approx(1.0)

    def test_pipelining_share_zero_for_pagerank(self, report):
        assert phase_shares(report)["hidden_by_pipelining"] == 0.0

    def test_pipelining_share_positive_for_cc(self):
        graph = rmat_graph(9, edge_factor=8, seed=1)
        ref = run_reference(ConnectedComponents(), graph)
        cc_report = ScalaGraph(ScalaGraphConfig()).run(
            ConnectedComponents(), graph, reference=ref
        )
        assert phase_shares(cc_report)["hidden_by_pipelining"] > 0


class TestDescribe:
    def test_contains_key_facts(self, report):
        text = describe(report)
        assert "ScalaGraph-512" in text
        assert "scatter bottlenecks" in text
        assert "NoC:" in text
        assert "off-chip" in text


class TestBarChart:
    def test_renders_bars(self):
        text = bar_chart({"a": 1.0, "b": 2.0}, width=10)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 10  # the max gets full width
        assert lines[0].count("#") == 5

    def test_empty(self):
        assert bar_chart({}) == "(empty)"

    def test_zero_values(self):
        text = bar_chart({"a": 0.0})
        assert "#" not in text
