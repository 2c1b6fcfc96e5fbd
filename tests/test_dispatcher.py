"""Dispatcher model tests: degree-aware packing and inter-phase pipelining."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.dispatcher import (
    apply_compute_cycles,
    pack_lines,
    pipeline_schedule,
    scatter_compute_cycles,
)
from repro.errors import ConfigurationError


class TestPackLines:
    def test_single_low_degree_vertex(self):
        lines = pack_lines(
            np.array([3]), np.array([0]), num_groups=1, line_width=16, window=1
        )
        assert lines[0] == 1

    def test_high_degree_vertex_spans_lines(self):
        lines = pack_lines(
            np.array([33]), np.array([0]), num_groups=1, line_width=16, window=1
        )
        assert lines[0] == 3  # 2 full + 1 remainder

    def test_window_one_is_one_vertex_per_line(self):
        """Figure 19a's baseline: each low-degree vertex occupies its own
        dispatch line."""
        degrees = np.array([2, 3, 1, 4])
        lines = pack_lines(degrees, np.zeros(4, dtype=int), 1, 16, window=1)
        assert lines[0] == 4

    def test_window_packs_low_degree_vertices(self):
        """Section IV-C: multiple low-degree vertices share one line."""
        degrees = np.array([2, 3, 1, 4])
        lines = pack_lines(degrees, np.zeros(4, dtype=int), 1, 16, window=16)
        assert lines[0] == 1  # 10 edges fit one 16-wide line

    def test_window_capped_by_line_width(self):
        degrees = np.full(8, 4)  # 32 edges
        lines = pack_lines(degrees, np.zeros(8, dtype=int), 1, 16, window=16)
        assert lines[0] == 2  # edges bound, not vertex bound

    def test_window_limits_vertices_per_line(self):
        degrees = np.ones(8, dtype=int)  # 8 single-edge vertices
        lines = pack_lines(degrees, np.zeros(8, dtype=int), 1, 16, window=4)
        assert lines[0] == 2  # 4 vertices per line max

    def test_monotone_in_window(self):
        rng = np.random.default_rng(0)
        degrees = rng.integers(1, 20, 100)
        groups = rng.integers(0, 4, 100)
        prev = None
        for window in (1, 2, 4, 8, 16):
            total = pack_lines(degrees, groups, 4, 16, window).sum()
            if prev is not None:
                assert total <= prev
            prev = total

    def test_per_group_accounting(self):
        degrees = np.array([16, 16, 1])
        groups = np.array([0, 1, 1])
        lines = pack_lines(degrees, groups, 2, 16, window=1)
        assert lines[0] == 1
        assert lines[1] == 2

    def test_lower_bound_edges_over_width(self):
        rng = np.random.default_rng(1)
        degrees = rng.integers(1, 50, 200)
        lines = pack_lines(degrees, np.zeros(200, dtype=int), 1, 16, 16)
        assert lines[0] >= np.ceil(degrees.sum() / 16)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            pack_lines(np.array([1]), np.array([0]), 1, 0, 1)
        with pytest.raises(ConfigurationError):
            pack_lines(np.array([1]), np.array([0, 1]), 2, 16, 1)

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=50),
        st.integers(1, 16),
    )
    def test_always_enough_lines_for_edges(self, degrees, window):
        degrees = np.array(degrees)
        lines = pack_lines(degrees, np.zeros(degrees.size, dtype=int), 1, 16, window)
        assert lines[0] * 16 >= degrees.sum()

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=50),
    )
    def test_never_fewer_than_fully_packed(self, degrees):
        degrees = np.array(degrees)
        lines = pack_lines(
            degrees, np.zeros(degrees.size, dtype=int), 1, 16, window=10_000
        )
        assert lines[0] <= np.ceil(degrees.sum() / 16) + degrees.size


class TestScatterCycles:
    def test_max_over_rows(self):
        degrees = np.array([16, 16, 16])
        rows = np.array([0, 0, 1])
        cycles = scatter_compute_cycles(degrees, rows, 2, 16, 16)
        assert cycles == 2.0

    def test_dispatch_efficiency(self):
        degrees = np.array([16])
        cycles = scatter_compute_cycles(
            degrees, np.array([0]), 1, 16, 16, dispatch_efficiency=0.5
        )
        assert cycles == 2.0

    def test_empty(self):
        cycles = scatter_compute_cycles(
            np.array([], dtype=int), np.array([], dtype=int), 4, 16, 16
        )
        assert cycles == 0.0


class TestApplyCycles:
    def test_busiest_pe(self):
        touched = np.array([0, 0, 0, 1, 2])
        assert apply_compute_cycles(touched, 4) == 3.0

    def test_empty(self):
        assert apply_compute_cycles(np.array([], dtype=int), 4) == 0.0


class TestPipelineSchedule:
    def test_disabled_is_serial(self):
        total, overlaps = pipeline_schedule([10, 10], [5, 5], enabled=False)
        assert total == 30
        assert overlaps == [0.0, 0.0]

    def test_overlap_bounded_by_next_scatter(self):
        total, overlaps = pipeline_schedule(
            [10, 4], [8, 8], enabled=True, efficiency=1.0
        )
        # Apply 0 (8) overlaps Scatter 1 (4): only 4 cycles hide.
        assert overlaps == [4.0, 0.0]
        assert total == 30 - 4

    def test_overlap_bounded_by_apply(self):
        total, overlaps = pipeline_schedule(
            [10, 20], [5, 5], enabled=True, efficiency=1.0
        )
        assert overlaps == [5.0, 0.0]

    def test_efficiency_scales_overlap(self):
        _, overlaps = pipeline_schedule(
            [10, 10], [5, 5], enabled=True, efficiency=0.5
        )
        assert overlaps[0] == 2.5

    def test_last_apply_not_overlapped(self):
        total, overlaps = pipeline_schedule(
            [10], [100], enabled=True, efficiency=1.0
        )
        assert total == 110
        assert overlaps == [0.0]

    def test_speedup_capped_at_ideal(self):
        """Perfect pipelining on equal phases approaches 2x, never more
        (the Figure 19b ceiling)."""
        scatter = [10.0] * 50
        apply = [10.0] * 50
        total, _ = pipeline_schedule(scatter, apply, enabled=True, efficiency=1.0)
        serial = sum(scatter) + sum(apply)
        assert serial / total <= 2.0
        assert serial / total > 1.8

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            pipeline_schedule([1, 2], [1], enabled=True)


class TestRowDispatcherIssueLine:
    """Degree-aware window edge cases of the cycle simulator's DU
    (``_RowDispatcher.issue_line``), cross-checked against both the
    analytic ``pack_lines`` model and the dispatch the vectorised
    engine's kernel runs."""

    @staticmethod
    def _lines(degrees, line_width, window):
        from repro.core.cycle_sim import _RowDispatcher

        du = _RowDispatcher(line_width, window)
        base = 0
        for v, deg in enumerate(degrees):
            du.push_vertex(v, np.arange(base, base + deg))
            base += deg
        lines = []
        while du.busy:
            line = du.issue_line()
            assert line, "a busy DU must always issue a non-empty line"
            assert len(line) <= line_width
            lines.append(line)
        # Every edge dispatched exactly once, in stream order.
        flat = [e for line in lines for e in line]
        assert flat == list(range(base))
        return lines

    def test_line_fills_exactly_at_vertex_boundary(self):
        # 2 + 2 fills a width-4 line with no mid-vertex split; the next
        # vertex starts a fresh line.
        lines = self._lines([2, 2, 3], line_width=4, window=16)
        assert [len(l) for l in lines] == [4, 3]

    def test_mid_vertex_resume_across_cycles(self):
        # A degree-10 vertex spans lines 4+4+2; the trailing remainder
        # shares its final line with the next vertices because a resumed
        # vertex does not count against the fresh line's window.
        lines = self._lines([10, 1, 1], line_width=4, window=16)
        assert [len(l) for l in lines] == [4, 4, 4]

    def test_mid_vertex_resume_counts_once_against_window(self):
        # The split vertex resumes at the head of the next line and its
        # completion consumes one window slot there (not two): line 2
        # holds the 2-edge remainder plus one fresh vertex, and the
        # window — not the width — ends the line.
        lines = self._lines([6, 1, 1], line_width=4, window=2)
        assert [len(l) for l in lines] == [4, 3, 1]

    def test_window_one_is_one_vertex_per_line(self):
        lines = self._lines([1, 1, 1], line_width=16, window=1)
        assert [len(l) for l in lines] == [1, 1, 1]

    def test_window_limits_vertices_per_line(self):
        lines = self._lines([1, 1, 1, 1], line_width=16, window=2)
        assert [len(l) for l in lines] == [2, 2]

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=8),
        st.integers(2, 6),
    )
    def test_window_one_matches_pack_lines_exactly(self, degrees, width):
        """At window=1 the greedy DU and the analytic model coincide:
        both issue ceil(d / width) lines per vertex."""
        got = len(self._lines(degrees, width, window=1))
        want = pack_lines(
            np.array(degrees),
            np.zeros(len(degrees), dtype=np.int64),
            1,
            width,
            1,
        )[0]
        assert got == int(want)

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=8),
        st.integers(2, 6),
        st.integers(1, 6),
    )
    def test_edge_conservation_and_line_caps(self, degrees, width, window):
        """Any workload: every line respects the width cap and the
        window cap on *newly started* vertices, and the line count is
        bounded below by the bandwidth bound."""
        lines = self._lines(degrees, width, window)
        total = sum(degrees)
        assert len(lines) >= -(-total // width)
        # Window cap: count vertices *starting* in each line.
        starts = np.cumsum([0] + degrees[:-1])
        for line in lines:
            started = sum(1 for e in line if e in set(starts.tolist()))
            assert started <= window

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=12),
        st.integers(2, 8),
        st.integers(1, 6),
        st.integers(1, 3),
        st.sampled_from(["rom", "dom"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_fastsim_replayer_matches_issue_line(
        self, degrees, width, window, rows, mapping, sanitize, seed
    ):
        """The vectorised engine's kernel sends each row's lines by
        issue_line's rule: one phase's recorded dispatch order and line
        count equal every row's _RowDispatcher replayed cycle by cycle,
        rows ascending within a cycle.  The mesh's columns are the line
        width; with the sanitizer armed the kernel runs one cycle per
        call, so the row cursors carry across calls."""
        from repro.algorithms.reference import gather_frontier_edges
        from repro.core.config import ScalaGraphConfig
        from repro.core.cycle_sim import (
            CycleAccurateScalaGraph,
            _RowDispatcher,
        )
        from repro.core.fastsim import _simulate
        from repro.graph.csr import CSRGraph

        assume(sum(degrees) > 0)
        vertices = len(degrees)
        heads = np.repeat(np.arange(vertices), degrees)
        tails = np.random.default_rng(seed).integers(0, vertices, heads.size)
        graph = CSRGraph.from_edges(vertices, np.column_stack([heads, tails]))
        config = ScalaGraphConfig(
            num_tiles=1,
            pe_rows=rows,
            pe_cols=width,
            mapping=mapping,
            degree_aware_window=window,
            cycle_engine="vectorized",
        )
        sim = CycleAccurateScalaGraph(config, sanitize=sanitize)
        src, dst, _ = gather_frontier_edges(graph, np.arange(vertices))
        record = _simulate(sim, graph, src, dst, max_cycles=100_000)

        # ROM streams a vertex's out-edges from its home row, DOM groups
        # edges by destination; each row queues its vertices ascending.
        group = dst if mapping == "dom" else src
        dispatchers = [_RowDispatcher(width, window) for _ in range(rows)]
        for vertex in np.unique(group):
            row = int(sim.topology.rows_of(sim.mapping.home(vertex)))
            dispatchers[row].push_vertex(
                vertex, np.flatnonzero(group == vertex)
            )
        order, lines = [], 0
        while any(du.busy for du in dispatchers):
            for du in dispatchers:
                line = du.issue_line()
                lines += bool(line)
                order.extend(line)
        assert record.edge_order.tolist() == order
        assert record.dispatch_lines == lines
