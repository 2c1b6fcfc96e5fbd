"""Experiment harness tests: registry, runner, formatting."""

import gc
import weakref

import numpy as np
import pytest

import repro.experiments.runner as runner
import repro.graph.datasets as datasets
from repro.experiments import (
    build_system,
    format_series,
    format_table,
    geometric_mean,
    run_matrix,
)


class TestRegistry:
    def test_build_all_systems(self):
        for label in (
            "Gunrock",
            "GraphDynS-128",
            "GraphDynS-512",
            "ScalaGraph-128",
            "ScalaGraph-512",
        ):
            assert build_system(label) is not None

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            build_system("CPU")

    def test_scalagraph_sizes(self):
        assert build_system("ScalaGraph-128").config.num_pes == 128
        assert build_system("ScalaGraph-512").config.num_pes == 512


class TestRunner:
    def test_small_matrix(self):
        matrix = run_matrix(
            graphs=["PK"],
            algorithms=["bfs", "pagerank"],
            systems=["GraphDynS-128", "ScalaGraph-512"],
            scale_shift=-5,
            max_iterations=4,
        )
        assert len(matrix.reports) == 4
        assert matrix.gteps("PK", "bfs", "ScalaGraph-512") > 0
        assert set(matrix.systems()) == {"GraphDynS-128", "ScalaGraph-512"}
        assert ("PK", "bfs") in matrix.cells()

    def test_speedup_helpers(self):
        # scale_shift=-2 keeps the graph large enough that ScalaGraph's
        # per-phase overheads do not dominate (a 256-vertex graph cannot
        # feed 512 PEs).
        matrix = run_matrix(
            graphs=["PK"],
            algorithms=["pagerank"],
            systems=["GraphDynS-128", "ScalaGraph-512"],
            scale_shift=-2,
            max_iterations=4,
        )
        ratio = matrix.speedup("ScalaGraph-512", "GraphDynS-128")
        assert ratio > 1.0
        by_algo = matrix.speedup_by_algorithm(
            "ScalaGraph-512", "GraphDynS-128"
        )
        assert by_algo["pagerank"] == pytest.approx(ratio)

    def test_weighted_algorithms_get_weights(self):
        from repro.experiments.runner import load_benchmark_graph

        for algorithm in ("sssp", "sswp", "spmv"):
            assert load_benchmark_graph(
                "PK", algorithm, scale_shift=-5
            ).is_weighted
        assert not load_benchmark_graph(
            "PK", "bfs", scale_shift=-5
        ).is_weighted


class TestKeptStandin:
    """`load_benchmark_graph` keeps the last unweighted stand-in."""

    @pytest.fixture(autouse=True)
    def forget(self):
        runner._standin.cache_clear()
        yield
        runner._standin.cache_clear()

    def test_matrix_builds_each_dataset_once(self, monkeypatch):
        builds = []
        rmat = datasets.rmat_graph

        def counting(*args, **kwargs):
            builds.append(kwargs["name"])
            return rmat(*args, **kwargs)

        monkeypatch.setattr(datasets, "rmat_graph", counting)
        matrix = run_matrix(
            graphs=["PK", "LJ"],
            systems=["GraphDynS-128", "ScalaGraph-512"],
            scale_shift=-6,
        )
        assert len(matrix.cells()) == 8
        assert builds == ["PK", "LJ"]

    def test_weighted_equals_load_dataset(self):
        weighted = runner.load_benchmark_graph("OR", "sssp", scale_shift=-5)
        fresh = datasets.load_dataset("OR", scale_shift=-5, weighted=True)
        assert weighted.name == fresh.name
        for name in ("indptr", "indices", "weights"):
            kept, built = getattr(weighted, name), getattr(fresh, name)
            assert kept.dtype == built.dtype
            assert np.array_equal(kept, built)

    def test_keeps_one_graph(self):
        first = runner.load_benchmark_graph("PK", "bfs", scale_shift=-5)
        assert runner.load_benchmark_graph("pk", "cc", -5) is first
        held = weakref.ref(first)
        del first
        runner.load_benchmark_graph("LJ", "bfs", scale_shift=-5)
        gc.collect()
        assert held() is None

    @pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
    def test_shared_arrays_are_read_only(self, algorithm):
        graph = runner.load_benchmark_graph("PK", algorithm, scale_shift=-5)
        arrays = [graph.indptr, graph.indices]
        if graph.weights is not None:
            arrays.append(graph.weights)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestFormatting:
    def test_format_table(self):
        text = format_table(
            ["graph", "gteps"],
            [["PK", 12.5], ["TW", 30.0]],
            title="Figure 14",
        )
        assert "Figure 14" in text
        assert "12.50" in text
        assert "TW" in text

    def test_format_table_alignment(self):
        text = format_table(["a", "b"], [["x", 1.0]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[1])

    def test_format_series(self):
        text = format_series(
            {"mesh": {32: 300.0, 64: 290.0}, "crossbar": {32: 270.0}},
            x_label="PEs",
        )
        assert "PEs" in text and "mesh" in text
        assert "-" in text  # missing crossbar value at 64
