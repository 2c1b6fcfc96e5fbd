"""Analytic NoC model tests, cross-checked against the detailed simulators."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.core.noc_model as noc_model
from repro.algorithms.reference import gather_frontier_edges
from repro.core.noc_model import (
    apply_noc_service_cycles,
    scatter_noc_stats,
    survivor_mask,
)
from repro.mapping import (
    DestinationOrientedMapping,
    RowOrientedMapping,
    SourceOrientedMapping,
)
from repro.noc.aggregation import window_coalesce_count
from repro.noc.topology import MeshTopology


@pytest.fixture
def topo():
    return MeshTopology(4, 4)


def frontier_edges(graph):
    active = np.arange(graph.num_vertices)
    src, dst, _ = gather_frontier_edges(graph, active)
    return src, dst


class TestSurvivorMask:
    def test_no_window_keeps_all(self):
        dst = np.array([1, 1, 1])
        col = np.zeros(3, dtype=np.int64)
        assert survivor_mask(dst, col, 0).all()

    def test_adjacent_duplicates_coalesce(self):
        dst = np.array([5, 5, 5])
        col = np.zeros(3, dtype=np.int64)
        mask = survivor_mask(dst, col, 1)
        assert mask.tolist() == [True, False, False]

    def test_first_occurrence_always_survives(self):
        rng = np.random.default_rng(0)
        dst = rng.integers(0, 20, 200)
        col = dst % 4
        mask = survivor_mask(dst, col, 64)
        for v in np.unique(dst):
            assert mask[dst == v].any()

    def test_columns_are_independent(self):
        # Same vertex id cannot appear in two columns (col is a function
        # of dst), but interleaving across columns must not break gaps.
        dst = np.array([0, 1, 0, 1, 0, 1])
        col = dst % 2
        mask = survivor_mask(dst, col, 1)
        # Within each column stream the duplicates are adjacent.
        assert mask.sum() == 2

    def test_matches_window_coalesce_count_single_column(self):
        rng = np.random.default_rng(1)
        dst = rng.integers(0, 15, 300)
        col = np.zeros(300, dtype=np.int64)
        for window in (1, 4, 16):
            mask = survivor_mask(dst, col, window)
            coalesced = 300 - mask.sum()
            assert coalesced == window_coalesce_count(dst, window)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(2)
        dst = rng.integers(0, 40, 500)
        col = dst % 4
        survivors = [
            survivor_mask(dst, col, w).sum() for w in (0, 1, 4, 16, 64)
        ]
        assert survivors == sorted(survivors, reverse=True)

    def test_empty(self):
        assert survivor_mask(np.array([]), np.array([]), 8).size == 0

    # Fractional windows arise when an integer register window is scaled
    # by an effectiveness factor; semantics are floor (see docstring).

    def test_fractional_window_half_disables_coalescing(self):
        dst = np.array([5, 5, 5])
        col = np.zeros(3, dtype=np.int64)
        assert survivor_mask(dst, col, 0.5).all()

    def test_fractional_window_one_point_five_floors_to_one(self):
        rng = np.random.default_rng(3)
        dst = rng.integers(0, 20, 300)
        col = dst % 4
        mask_15 = survivor_mask(dst, col, 1.5)
        mask_10 = survivor_mask(dst, col, 1.0)
        assert np.array_equal(mask_15, mask_10)

    def test_window_one_exact(self):
        # gap 1 coalesces, gap 2 survives.
        dst = np.array([7, 7, 7, 8, 7])
        col = np.zeros(5, dtype=np.int64)
        mask = survivor_mask(dst, col, 1.0)
        assert mask.tolist() == [True, False, False, True, True]

    def test_gap_two_survives_window_one_point_five(self):
        # If 1.5 were not floored, a gap-2 revisit would (incorrectly)
        # coalesce under a ceil or round interpretation... it must not.
        dst = np.array([7, 8, 7])
        col = np.zeros(3, dtype=np.int64)
        assert survivor_mask(dst, col, 1.5).all()


def grouped_arange(sorted_keys):
    """``0,1,2,...`` restarting whenever an ascending key array changes.

    ``sorted_keys`` must be grouped (all equal keys adjacent); the result
    gives each element its rank within its group, preserving order.
    """
    sorted_keys = np.asarray(sorted_keys)
    if sorted_keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    is_start = np.empty(sorted_keys.size, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_start[1:])
    idx = np.arange(sorted_keys.size, dtype=np.int64)
    start_idx = np.where(is_start, idx, 0)
    np.maximum.accumulate(start_idx, out=start_idx)
    return idx - start_idx


class TestGroupedArange:
    def test_basic(self):
        keys = np.array([0, 0, 0, 1, 1, 3])
        assert grouped_arange(keys).tolist() == [0, 1, 2, 0, 1, 0]

    def test_single_group(self):
        assert grouped_arange(np.zeros(4, dtype=int)).tolist() == [0, 1, 2, 3]

    def test_all_distinct(self):
        assert grouped_arange(np.arange(5)).tolist() == [0] * 5

    def test_empty(self):
        assert grouped_arange(np.array([])).size == 0

    @given(st.lists(st.integers(0, 5), max_size=50))
    def test_property_matches_python(self, values):
        keys = np.array(sorted(values), dtype=np.int64)
        result = grouped_arange(keys)
        seen = {}
        for key, rank in zip(keys, result):
            assert rank == seen.get(int(key), 0)
            seen[int(key)] = int(rank) + 1


def survivor_mask_oracle(edge_dst, dst_col, window):
    """The argsort + three-key lexsort formulation of :func:`survivor_mask`
    that the one-sort version replaced, kept as its differential oracle."""
    n = int(edge_dst.size)
    mask = np.ones(n, dtype=bool)
    window = math.floor(window)
    if n == 0 or window < 1:
        return mask
    # Group by column, preserving stream order within each column.
    col_order = np.argsort(dst_col, kind="stable")
    col_sorted = dst_col[col_order]
    pos_in_col = grouped_arange(col_sorted)
    dst_sorted = edge_dst[col_order]
    # Within each column, group occurrences of each vertex in order.
    occ_order = np.lexsort((pos_in_col, dst_sorted, col_sorted))
    k_col = col_sorted[occ_order]
    k_dst = dst_sorted[occ_order]
    k_pos = pos_in_col[occ_order]
    same = (k_col[1:] == k_col[:-1]) & (k_dst[1:] == k_dst[:-1])
    gaps = k_pos[1:] - k_pos[:-1]
    survives = np.ones(n, dtype=bool)
    survives[1:] = ~(same & (gaps <= window))
    mask[col_order[occ_order]] = survives
    return mask


@st.composite
def update_streams(draw):
    """(dst, col) streams; the column is drawn independently of the
    vertex, so one vertex may appear in several columns."""
    n = draw(st.integers(0, 200))
    num_vertices = draw(st.integers(1, 30))
    num_cols = draw(st.integers(1, 5))
    dst = st.lists(st.integers(0, num_vertices - 1), min_size=n, max_size=n)
    col = st.lists(st.integers(0, num_cols - 1), min_size=n, max_size=n)
    return _stream(draw(dst), draw(col))


def _stream(dst, col):
    return np.array(dst, dtype=np.int64), np.array(col, dtype=np.int64)


class TestSurvivorMaskOracle:
    @pytest.mark.parametrize("window", [0, 0.5, 1, 1.5, 64])
    @given(stream=update_streams())
    @example(stream=_stream([], []))
    @example(stream=_stream([3], [0]))
    @example(stream=_stream([4, 4, 2, 4, 2, 2, 4], [0] * 7))
    @example(stream=_stream([1, 1, 1, 1, 2, 1], [0, 1, 0, 1, 1, 0]))
    def test_equals_oracle(self, window, stream):
        dst, col = stream
        assert np.array_equal(
            survivor_mask(dst, col, window),
            survivor_mask_oracle(dst, col, window),
        )

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match=">= 0"):
            survivor_mask(*_stream([3, -1], [0, 0]), 4)
        with pytest.raises(ValueError, match=">= 0"):
            survivor_mask(*_stream([3, 1], [0, -2]), 4)

    def test_rejects_int64_key_overflow(self):
        # (max col + 1) * (V + 1) * n = 2 * (2**62 + 1) * 2 > 2**63.
        with pytest.raises(ValueError, match="overflow"):
            survivor_mask(*_stream([2**62, 0], [1, 0]), 4)

    def test_largest_key_that_fits(self):
        # (0 + 1) * 2**62 * 2 == 2**63: the largest key is 2**63 - 1.
        dst, col = _stream([2**62 - 1] * 2, [0, 0])
        assert survivor_mask(dst, col, 1).tolist() == [True, False]

    def test_fig14_matrix_equals_oracle_run(self, monkeypatch):
        """Every Fig. 14 report is unchanged with the oracle in place."""
        from repro.experiments import run_matrix

        def dicts(matrix):
            return {
                key: json.dumps(report.to_dict(include_iterations=True))
                for key, report in matrix.reports.items()
            }

        production = dicts(run_matrix(scale_shift=-6))
        calls = []

        def oracle(*args):
            calls.append(1)
            return survivor_mask_oracle(*args)

        monkeypatch.setattr(noc_model, "survivor_mask", oracle)
        assert dicts(run_matrix(scale_shift=-6)) == production
        assert calls and len(production) == 100


class TestScatterStats:
    def test_dom_has_no_noc_traffic(self, topo, medium_rmat):
        src, dst = frontier_edges(medium_rmat)
        stats = scatter_noc_stats(DestinationOrientedMapping(topo), src, dst, 16)
        assert stats.messages == 0
        assert stats.service_cycles == 0.0
        assert stats.spd_service_cycles > 0

    def test_rom_less_traffic_than_som(self, topo, medium_rmat):
        src, dst = frontier_edges(medium_rmat)
        rom = scatter_noc_stats(RowOrientedMapping(topo), src, dst, 0)
        som = scatter_noc_stats(SourceOrientedMapping(topo), src, dst, 0)
        assert rom.total_hops < som.total_hops

    def test_aggregation_reduces_hops_and_spd(self, topo, medium_rmat):
        src, dst = frontier_edges(medium_rmat)
        off = scatter_noc_stats(RowOrientedMapping(topo), src, dst, 0)
        on = scatter_noc_stats(RowOrientedMapping(topo), src, dst, 64)
        assert on.coalesced > 0
        assert on.total_hops < off.total_hops
        assert on.spd_service_cycles <= off.spd_service_cycles
        assert off.coalesced == 0

    def test_som_horizontal_links_not_relieved(self, topo, medium_rmat):
        """Aggregation merges on the destination column, so SOM's
        horizontal traffic stays put while vertical shrinks."""
        src, dst = frontier_edges(medium_rmat)
        off = scatter_noc_stats(SourceOrientedMapping(topo), src, dst, 0)
        on = scatter_noc_stats(SourceOrientedMapping(topo), src, dst, 64)
        assert on.total_hops < off.total_hops
        assert on.messages == off.messages  # injection unchanged for SOM

    def test_empty_phase(self, topo):
        stats = scatter_noc_stats(
            RowOrientedMapping(topo),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            16,
        )
        assert stats.messages == 0
        assert stats.service_cycles == 0.0

    def test_hops_match_mapping_accounting_without_aggregation(
        self, topo, medium_rmat
    ):
        src, dst = frontier_edges(medium_rmat)
        mapping = RowOrientedMapping(topo)
        stats = scatter_noc_stats(mapping, src, dst, 0)
        traffic = mapping.scatter_traffic(src, dst)
        assert stats.total_hops == traffic.total_hops
        assert stats.messages == traffic.num_messages


class TestApplyService:
    def test_som_rom_free(self, topo):
        assert apply_noc_service_cycles(SourceOrientedMapping(topo), 100) == 0
        assert apply_noc_service_cycles(RowOrientedMapping(topo), 100) == 0

    def test_dom_ingest_bound(self, topo):
        dom = DestinationOrientedMapping(topo)
        assert apply_noc_service_cycles(dom, 100) >= 100

    def test_dom_zero_updates(self, topo):
        assert apply_noc_service_cycles(DestinationOrientedMapping(topo), 0) == 0
