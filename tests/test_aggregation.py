"""Aggregation pipeline tests (Figure 11) and the window model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.noc.aggregation import (
    AggregationPipeline,
    aggregation_geometry,
    window_coalesce,
    window_coalesce_count,
)


def emit_all(pipe):
    """Emit until the pipeline is empty, as the end of a Scatter phase
    does; every register is emittable, so nothing is left behind."""
    return list(iter(pipe.emit, None))


class TestPipelineWrite:
    def test_store_then_coalesce(self):
        pipe = AggregationPipeline(2, 2, reduce_fn=lambda a, b: a + b)
        assert pipe.offer(4, 1.0) == "stored"
        assert pipe.offer(4, 2.0) == "coalesced"
        assert pipe.emit() == (4, 3.0)

    def test_figure11_example(self):
        """The paper's worked example: V1,V3 in column 1 and V2,V4 in
        column 0 (vertex id % 2 hashing); V3' coalesces with V3 in the
        second stage."""
        pipe = AggregationPipeline(2, 2, reduce_fn=lambda a, b: a + b)
        pipe.offer(1, 10.0)  # column 1, stage 0
        pipe.offer(3, 30.0)  # column 1, stage 1
        pipe.offer(2, 20.0)  # column 0, stage 0
        pipe.offer(4, 40.0)  # column 0, stage 1
        assert pipe.occupancy() == 4
        assert pipe.offer(3, 5.0) == "coalesced"  # V3' reduces into V3
        drained = dict(emit_all(pipe))
        assert drained[3] == 35.0
        assert drained == {1: 10.0, 2: 20.0, 3: 35.0, 4: 40.0}

    def test_different_vertices_fill_stages(self):
        pipe = AggregationPipeline(3, 1, reduce_fn=max)
        assert pipe.offer(0, 1.0) == "stored"
        assert pipe.offer(1, 1.0) == "stored"
        assert pipe.offer(2, 1.0) == "stored"
        assert pipe.occupancy() == 3

    def test_rejected_when_column_full(self):
        pipe = AggregationPipeline(2, 1, reduce_fn=max)
        pipe.offer(0, 1.0)
        pipe.offer(1, 1.0)
        assert pipe.offer(2, 1.0) == "rejected"
        assert pipe.stats.rejected == 1

    def test_full_column_still_coalesces_match(self):
        pipe = AggregationPipeline(2, 1, reduce_fn=lambda a, b: a + b)
        pipe.offer(0, 1.0)
        pipe.offer(1, 1.0)
        assert pipe.offer(1, 2.0) == "coalesced"

    def test_column_hash_routes_writes(self):
        pipe = AggregationPipeline(2, 2, reduce_fn=max)
        pipe.offer(0, 1.0)  # column 0
        pipe.offer(2, 2.0)  # column 0 again
        pipe.offer(1, 3.0)  # column 1
        assert pipe.column_of(0) == 0 and pipe.column_of(1) == 1
        assert pipe.occupancy() == 3

    def test_custom_reduce_min(self):
        pipe = AggregationPipeline(2, 2, reduce_fn=min)
        pipe.offer(4, 7.0)
        pipe.offer(4, 3.0)
        assert pipe.emit() == (4, 3.0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            AggregationPipeline(0, 4)


class TestPipelineRead:
    def test_emit_empty(self):
        pipe = AggregationPipeline(2, 2)
        assert pipe.emit() is None

    def test_systolic_shift(self):
        """Reading stage 0 pulls deeper stages forward (Figure 11b)."""
        pipe = AggregationPipeline(2, 1, reduce_fn=max)
        pipe.offer(0, 1.0)
        pipe.offer(1, 2.0)
        assert pipe.emit(column=0) == (0, 1.0)
        # Vertex 1 moved from stage 1 to stage 0.
        assert pipe.emit(column=0) == (1, 2.0)

    def test_round_robin_emit(self):
        pipe = AggregationPipeline(1, 2, reduce_fn=max)
        pipe.offer(0, 1.0)  # column 0
        pipe.offer(1, 2.0)  # column 1
        first = pipe.emit()
        second = pipe.emit()
        assert {first[0], second[0]} == {0, 1}

    def test_drain_returns_everything(self):
        pipe = AggregationPipeline(4, 4, reduce_fn=lambda a, b: a + b)
        for v in range(10):
            pipe.offer(v, float(v))
        items = emit_all(pipe)
        assert sorted(v for v, _ in items) == list(range(10))
        assert pipe.occupancy() == 0

    def test_stats_counters(self):
        pipe = AggregationPipeline(2, 2, reduce_fn=lambda a, b: a + b)
        pipe.offer(0, 1.0)
        pipe.offer(0, 1.0)
        pipe.offer(1, 1.0)
        emit_all(pipe)
        assert pipe.stats.offered == 3
        assert pipe.stats.coalesced == 1
        assert pipe.stats.stored == 2
        assert pipe.stats.emitted == 2


class TestValuePreservation:
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
    )
    def test_pipeline_preserves_sums(self, vids):
        """Coalescing must not change the per-vertex reduced value —
        the correctness condition of Section IV-B."""
        pipe = AggregationPipeline(4, 4, reduce_fn=lambda a, b: a + b)
        emitted = []
        for v in vids:
            if pipe.offer(v, 1.0) == "rejected":
                emitted.append(pipe.emit())
                assert pipe.offer(v, 1.0) != "rejected"
        emitted.extend(emit_all(pipe))
        sums = {}
        for v, val in emitted:
            sums[v] = sums.get(v, 0.0) + val
        for v in set(vids):
            assert sums[v] == float(vids.count(v))


class TestWindowModel:
    def test_zero_window_never_coalesces(self):
        assert window_coalesce_count(np.array([1, 1, 1, 1]), 0) == 0

    def test_adjacent_duplicates(self):
        assert window_coalesce_count(np.array([7, 7, 7]), 1) == 2

    def test_gap_larger_than_window(self):
        stream = np.array([1, 2, 3, 4, 1])
        assert window_coalesce_count(stream, 3) == 0
        assert window_coalesce_count(stream, 4) == 1

    def test_empty_and_singleton(self):
        assert window_coalesce_count(np.array([]), 8) == 0
        assert window_coalesce_count(np.array([3]), 8) == 0

    def test_monotone_in_window(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 30, 500)
        counts = [window_coalesce_count(stream, w) for w in (0, 2, 4, 8, 16, 32)]
        assert counts == sorted(counts)

    def test_full_window_counts_all_duplicates(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 10, 200)
        distinct = len(np.unique(stream))
        assert window_coalesce_count(stream, 10_000) == stream.size - distinct

    @given(
        st.lists(st.integers(0, 9), max_size=50),
        st.integers(0, 20),
    )
    def test_functional_model_value_preserving(self, vids, window):
        vids = np.array(vids, dtype=np.int64)
        values = np.ones(vids.size)
        out_ids, out_vals = window_coalesce(vids, values, window, np.add)
        for v in np.unique(vids):
            assert out_vals[out_ids == v].sum() == pytest.approx(
                float((vids == v).sum())
            )

    @given(st.lists(st.integers(0, 9), max_size=50))
    def test_functional_model_zero_window_is_identity(self, vids):
        vids = np.array(vids, dtype=np.int64)
        out_ids, _ = window_coalesce(vids, np.ones(vids.size), 0, np.add)
        assert np.array_equal(out_ids, vids)


class TestWindowModelAgreement:
    """The two Figure 18(a) models must implement ONE semantics:
    residency refreshed by every touch, gaps measured in input-stream
    positions (the semantics of ``window_coalesce_count``)."""

    def test_interleaved_stream_regression(self):
        # [7, 1, 7, 2, 7] with window 2: both gaps between consecutive
        # touches of vertex 7 are exactly 2, so both coalesce.  The old
        # functional model measured from the original store position in
        # the output stream and reported only 1.
        stream = np.array([7, 1, 7, 2, 7])
        assert window_coalesce_count(stream, 2) == 2
        out_ids, out_vals = window_coalesce(stream, np.ones(5), 2, np.add)
        assert stream.size - out_ids.size == 2
        assert out_vals[out_ids == 7].sum() == pytest.approx(3.0)

    @given(
        st.lists(st.integers(0, 9), max_size=60),
        st.integers(0, 20),
    )
    def test_sizes_agree_exactly(self, vids, window):
        """input_size - output_size == window_coalesce_count, always."""
        ids = np.array(vids, dtype=np.int64)
        out_ids, _ = window_coalesce(ids, np.ones(ids.size), window, np.add)
        assert ids.size - out_ids.size == window_coalesce_count(ids, window)

    def test_sizes_agree_on_large_random_streams(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            stream = rng.integers(0, 40, 1000)
            window = int(rng.integers(0, 64))
            out_ids, _ = window_coalesce(
                stream, np.ones(stream.size), window, np.add
            )
            assert (
                stream.size - out_ids.size
                == window_coalesce_count(stream, window)
            )

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    def test_differential_vs_pipeline_infinite_window(self, vids):
        """In the no-eviction limit the register array IS the window
        model: a single-column pipeline wide enough to hold every
        distinct vertex coalesces exactly the repeats an unbounded
        window does."""
        pipe = AggregationPipeline(
            num_stages=8, num_columns=1, reduce_fn=lambda a, b: a + b
        )
        for v in vids:
            assert pipe.offer(v, 1.0) != "rejected"
        ids = np.array(vids, dtype=np.int64)
        assert pipe.stats.coalesced == window_coalesce_count(
            ids, ids.size + 1
        )
        drained = dict(emit_all(pipe))
        out_ids, out_vals = window_coalesce(
            ids, np.ones(ids.size), ids.size + 1, np.add
        )
        assert drained == {
            int(v): float(x) for v, x in zip(out_ids, out_vals)
        }


class TestAggregationGeometry:
    @pytest.mark.parametrize("registers", [1, 4, 9, 16])
    def test_boundary_capacities_exact(self, registers):
        stages, cols = aggregation_geometry(registers)
        assert stages * cols == registers

    def test_paper_default_is_figure11_4x4(self):
        assert aggregation_geometry(16) == (4, 4)

    def test_nine_registers_not_silently_quantized(self):
        # A 2x4 array (capacity 8) would silently drop one of the 9.
        stages, cols = aggregation_geometry(9)
        assert stages * cols == 9

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            aggregation_geometry(0)
        with pytest.raises(ConfigurationError):
            aggregation_geometry(-4)

    @given(st.integers(1, 256))
    def test_capacity_always_equals_request(self, registers):
        stages, cols = aggregation_geometry(registers)
        assert stages >= 1 and cols >= 1
        assert stages * cols == registers


class TestDrainInvariant:
    def test_drain_always_empties(self):
        pipe = AggregationPipeline(3, 3, reduce_fn=lambda a, b: a + b)
        for v in range(9):
            pipe.offer(v * 3, float(v))
        assert len(emit_all(pipe)) == pipe.stats.stored
        assert pipe.occupancy() == 0
