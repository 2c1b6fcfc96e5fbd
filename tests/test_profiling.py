"""Profiling layer: timers, counters, model integration."""

import numpy as np

from repro.algorithms import BFS, PageRank
from repro.core import (
    CycleAccurateScalaGraph,
    NullProfiler,
    Profiler,
    ScalaGraph,
    ScalaGraphConfig,
)
from repro.graph.generators import rmat_graph

ENGINES = ["reference", "vectorized"]


def small_config(engine):
    """A 4x4 single tile with both engine fields set to ``engine``."""
    return ScalaGraphConfig(
        num_tiles=1, pe_rows=4, pe_cols=4,
        noc_engine=engine, cycle_engine=engine,
    )


class TestProfiler:
    def test_timer_accumulates(self):
        prof = Profiler()
        with prof.timer("phase"):
            pass
        with prof.timer("phase"):
            pass
        data = prof.to_dict()
        assert data["timers"]["phase"]["calls"] == 2
        assert data["timers"]["phase"]["total_seconds"] >= 0.0

    def test_add_time_direct(self):
        prof = Profiler()
        prof.add_time("noc", 0.5)
        prof.add_time("noc", 0.25, calls=3)
        assert prof.timer_seconds("noc") == 0.75
        assert prof.to_dict()["timers"]["noc"]["calls"] == 4

    def test_counters(self):
        prof = Profiler()
        prof.count("cycles", 10)
        prof.count("cycles", 5)
        assert prof.counter("cycles") == 15
        assert prof.counter("missing") == 0

    def test_timer_records_exceptions(self):
        prof = Profiler()
        try:
            with prof.timer("boom"):
                raise ValueError()
        except ValueError:
            pass
        assert prof.to_dict()["timers"]["boom"]["calls"] == 1

    def test_block_timer_reusable(self):
        prof = Profiler()
        timer = prof.timer("loop")
        for _ in range(3):
            with timer:
                pass
        entry = prof.to_dict()["timers"]["loop"]
        assert entry["calls"] == 3
        assert entry["total_seconds"] >= 0.0

    def test_block_timer_propagates_exceptions(self):
        prof = Profiler()
        timer = prof.timer("boom")
        try:
            with timer:
                raise ValueError()
        except ValueError:
            pass
        assert prof.to_dict()["timers"]["boom"]["calls"] == 1

    def test_merge(self):
        a, b = Profiler(), Profiler()
        a.add_time("t", 1.0)
        b.add_time("t", 2.0)
        b.count("c", 3)
        a.merge(b)
        assert a.timer_seconds("t") == 3.0
        assert a.counter("c") == 3

    def test_to_dict_json_serialisable(self):
        import json

        prof = Profiler()
        with prof.timer("x"):
            prof.count("y")
        json.dumps(prof.to_dict())


class TestNullProfiler:
    def test_noop(self):
        prof = NullProfiler()
        with prof.timer("x"):
            pass
        prof.add_time("x", 1.0)
        prof.count("y", 5)
        assert prof.to_dict() == {"timers": {}, "counters": {}}


class TestModelIntegration:
    def test_analytic_report_carries_profile(self):
        graph = rmat_graph(6, edge_factor=6, seed=1)
        prof = Profiler()
        config = ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4)
        report = ScalaGraph(config, profiler=prof).run(BFS(), graph)
        assert report.profile is not None
        timers = report.profile["timers"]
        for name in (
            "analytic.reference",
            "analytic.scatter_model",
            "analytic.apply_model",
        ):
            assert name in timers
        assert report.profile["counters"]["analytic.iterations"] == len(
            report.iterations
        )
        assert "profile" in report.to_dict()

    def test_analytic_without_profiler_unchanged(self):
        graph = rmat_graph(6, edge_factor=6, seed=1)
        config = ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4)
        report = ScalaGraph(config).run(BFS(), graph)
        assert report.profile is None
        assert "profile" not in report.to_dict()

    def test_profiling_does_not_change_timing_results(self):
        graph = rmat_graph(6, edge_factor=6, seed=1)
        config = ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4)
        plain = ScalaGraph(config).run(BFS(), graph)
        profiled = ScalaGraph(config, profiler=Profiler()).run(BFS(), graph)
        assert plain.total_cycles == profiled.total_cycles
        assert plain.gteps == profiled.gteps

    def test_cycle_sim_profile(self):
        graph = rmat_graph(6, edge_factor=6, seed=2)
        for engine in ENGINES:
            prof = Profiler()
            sim = CycleAccurateScalaGraph(small_config(engine), profiler=prof)
            result = sim.run(PageRank(max_iters=2), graph)
            assert result.profile is not None
            timers = result.profile["timers"]
            assert "cycle_sim.scatter" in timers
            assert "cycle_sim.apply" in timers
            assert "cycle_sim.noc_step" in timers
            counters = result.profile["counters"]
            assert counters["cycle_sim.spd_reduces"] == (
                result.stats.spd_reduces
            )
            assert counters["cycle_sim.scatter_cycles"] == sum(
                result.stats.scatter_cycles
            )

    def test_cycle_sim_profiling_preserves_results(self):
        graph = rmat_graph(6, edge_factor=6, seed=2)
        for engine in ENGINES:
            config = small_config(engine)
            plain = CycleAccurateScalaGraph(config).run(BFS(), graph)
            profiled = CycleAccurateScalaGraph(
                config, profiler=Profiler()
            ).run(BFS(), graph)
            assert np.array_equal(plain.properties, profiled.properties)
            assert plain.stats.total_cycles == profiled.stats.total_cycles
            assert plain.profile is None
