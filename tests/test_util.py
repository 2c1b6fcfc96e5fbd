"""Tests for the shared numpy utilities and determinism guarantees."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import grouped_arange_from_counts, unique_id_counts


class TestGroupedArangeFromCounts:
    def test_basic(self):
        out = grouped_arange_from_counts(np.array([3, 1, 2]))
        assert out.tolist() == [0, 1, 2, 0, 0, 1]

    def test_zero_counts_skipped(self):
        out = grouped_arange_from_counts(np.array([2, 0, 1]))
        assert out.tolist() == [0, 1, 0]

    def test_empty(self):
        assert grouped_arange_from_counts(np.array([], dtype=int)).size == 0

    @given(st.lists(st.integers(0, 6), max_size=30))
    def test_property_total_length(self, counts):
        counts = np.array(counts, dtype=np.int64)
        out = grouped_arange_from_counts(counts)
        assert out.size == counts.sum()


class TestUniqueIdCounts:
    """The bincount distinct set and counts equal ``np.unique``'s."""

    @staticmethod
    def check(ids):
        values, counts = unique_id_counts(ids)
        want_values, want_counts = np.unique(ids, return_counts=True)
        assert values.dtype == want_values.dtype == np.int64
        assert counts.dtype == want_counts.dtype
        assert np.array_equal(values, want_values)
        assert np.array_equal(counts, want_counts)

    def test_empty(self):
        self.check(np.array([], dtype=np.int64))

    def test_single_max_id(self):
        self.check(np.array([(1 << 20) - 1], dtype=np.int64))

    @given(st.lists(st.integers(0, 300), max_size=200))
    def test_property_matches_np_unique(self, values):
        self.check(np.array(values, dtype=np.int64))


class TestEndToEndDeterminism:
    """Identical inputs must give bit-identical results — sweeps and
    regression stores rely on it."""

    def test_matrix_runs_identical(self):
        from repro.experiments import run_matrix

        kwargs = dict(
            graphs=["PK"],
            algorithms=["bfs"],
            systems=["ScalaGraph-512"],
            scale_shift=-4,
        )
        a = run_matrix(**kwargs)
        b = run_matrix(**kwargs)
        for key in a.reports:
            assert a.reports[key].total_cycles == b.reports[key].total_cycles
            assert a.reports[key].gteps == b.reports[key].gteps
            assert np.array_equal(
                a.reports[key].properties, b.reports[key].properties
            )

    def test_cycle_sim_deterministic(self):
        from repro.algorithms import BFS
        from repro.core import CycleAccurateScalaGraph, ScalaGraphConfig
        from repro.graph.generators import rmat_graph

        g = rmat_graph(6, edge_factor=5, seed=9)
        for engine in ("reference", "vectorized"):
            cfg = ScalaGraphConfig(
                num_tiles=1, pe_rows=4, pe_cols=4,
                noc_engine=engine, cycle_engine=engine,
            )
            a = CycleAccurateScalaGraph(cfg).run(BFS(), g)
            b = CycleAccurateScalaGraph(cfg).run(BFS(), g)
            assert a.stats.scatter_cycles == b.stats.scatter_cycles
            assert a.stats.noc_hops == b.stats.noc_hops
