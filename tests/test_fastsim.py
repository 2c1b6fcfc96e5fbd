"""Vectorized scatter-phase engine: differential equivalence gates.

The contract under test (see ``repro/core/fastsim.py``): with
``cycle_engine='vectorized'`` the cycle-accurate simulator produces
**identical** stats (integer for integer) and **identical** computed
properties (bit for bit) to the reference ``_scatter_phase``, for any
mapping x register count x algorithm x fault schedule, with the
SimSanitizer armed on both paths and warnings escalated to errors.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.reference import gather_frontier_edges
from repro.algorithms.base import VertexProgram
from repro.analysis.sanitizer import SimSanitizer
from repro.core import fastsim
from repro.core.config import ScalaGraphConfig
from repro.core.cycle_sim import CycleAccurateScalaGraph
from repro.core.fastsim import resolve_cycle_engine
from repro.core.profiling import Profiler
from repro.errors import ConfigurationError, SanitizerError, SimulationError
from repro.faults.schedule import (
    FaultConfig,
    FaultSchedule,
    FifoStall,
    LinkOutage,
    PEStallWindow,
)
from repro.graph.generators import grid_graph, rmat_graph, star_graph
from repro.noc import meshkernel
from repro.noc.fastmesh import FastMeshNetwork
from repro.noc.mesh import EAST, SOUTH
from repro.noc.topology import MeshTopology
from repro.service.scheduler import _CYCLE_MESH

GRAPH = rmat_graph(6, edge_factor=8, seed=3)


def _fingerprint(result):
    """Every scalar and per-phase list counter of a run's CycleStats."""
    out = {}
    for name, value in vars(result.stats).items():
        if isinstance(value, (int, float, bool, str)):
            out[name] = value
        elif isinstance(value, list):
            out[name] = tuple(value)
    return out


def _run(
    engine,
    *,
    noc_engine="auto",
    rows=8,
    cols=8,
    registers=16,
    mapping="rom",
    algorithm="pagerank",
    graph=GRAPH,
    fault_config=None,
    fault_schedule=None,
    window=None,
    buffer_depth=None,
    program=None,
    profiler=None,
    **alg_kwargs,
):
    cfg_kwargs = dict(
        num_tiles=1,
        pe_rows=rows,
        pe_cols=cols,
        aggregation_registers=registers,
        mapping=mapping,
        noc_engine=noc_engine,
        cycle_engine=engine,
    )
    if window is not None:
        cfg_kwargs["degree_aware_window"] = window
    config = ScalaGraphConfig(**cfg_kwargs)
    faults = None
    if fault_config is not None:
        faults = FaultSchedule(MeshTopology(rows, cols), fault_config)
    elif fault_schedule is not None:
        # Factory, not an instance: each engine run gets a fresh
        # schedule so per-instance instrumentation stays per-run.
        faults = fault_schedule()
    sim_kwargs = dict(sanitize=True, faults=faults, profiler=profiler)
    if buffer_depth is not None:
        sim_kwargs["noc_buffer_depth"] = buffer_depth
    sim = CycleAccurateScalaGraph(config, **sim_kwargs)
    if algorithm == "pagerank":
        alg_kwargs.setdefault("max_iters", 2)
    if program is None:
        program = make_algorithm(algorithm, **alg_kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sim.run(program, graph)
    return result


def _assert_identical(case_kwargs):
    ref = _run("reference", **case_kwargs)
    vec = _run("vectorized", **case_kwargs)
    assert _fingerprint(ref) == _fingerprint(vec)
    np.testing.assert_array_equal(ref.properties, vec.properties)


class _SpecialValues(VertexProgram):
    """One all-active iteration reducing, with ``ufunc``, scatter values
    that cycle through +-0.0, +-inf, NaN and ordinary numbers."""

    all_active = True
    VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 0.0])

    def __init__(self, ufunc):
        self.ufunc = ufunc

    def initial_properties(self, ctx):
        return np.zeros(ctx.num_vertices)

    def initial_active(self, ctx):
        return np.arange(ctx.num_vertices, dtype=np.int64)

    @property
    def reduce_ufunc(self):
        return self.ufunc

    @property
    def reduce_identity(self):
        return 1.0 if self.ufunc is np.multiply else 0.0

    def scatter_value(self, ctx, edge_src, edge_weight, src_prop):
        order = np.arange(edge_src.size) * 3 + edge_src
        return self.VALUES[order % self.VALUES.size]

    def apply_values(self, ctx, props, vtemp):
        return vtemp.copy()

    def max_iterations(self, ctx):
        return 1


class _SpecialValuesIterated(_SpecialValues):
    """:class:`_SpecialValues` over three all-active iterations.  The
    scatter values also follow the source's property (its sign bit, NaN
    and infinity), so each iteration reduces new values over the same
    edges."""

    def scatter_value(self, ctx, edge_src, edge_weight, src_prop):
        shift = (
            np.signbit(src_prop).astype(np.int64)
            + 2 * np.isnan(src_prop)
            + 3 * np.isinf(src_prop)
        )
        order = np.arange(edge_src.size) * 3 + edge_src + shift
        return self.VALUES[order % self.VALUES.size]

    def max_iterations(self, ctx):
        return 3


class TestResolveCycleEngine:
    def test_auto_large_mesh_is_vectorized(self):
        assert resolve_cycle_engine("auto", "vectorized") == "vectorized"
        for size in (4, 8):
            result = _run(
                "auto", rows=size, cols=size, algorithm="bfs",
                profiler=Profiler(),
            )
            assert "cycle_sim.dispatch" in result.profile["timers"]

    @pytest.mark.parametrize("system", sorted(_CYCLE_MESH))
    def test_daemon_meshes_run_the_kernel_by_default(self, system):
        """The daemon's cycle-fidelity meshes run the compiled engines
        under the default config, equal to the reference stack."""
        rows, cols = _CYCLE_MESH[system]
        default = _run("auto", rows=rows, cols=cols, profiler=Profiler())
        ref = _run("reference", noc_engine="reference", rows=rows, cols=cols)
        assert "cycle_sim.dispatch" in default.profile["timers"]
        assert _fingerprint(default) == _fingerprint(ref)
        np.testing.assert_array_equal(
            default.properties.view(np.int64), ref.properties.view(np.int64)
        )

    def test_explicit_names_pass_through(self):
        assert resolve_cycle_engine("reference", "vectorized") == "reference"
        assert resolve_cycle_engine("VECTORIZED", "vectorized") == (
            "vectorized"
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_cycle_engine("turbo", "vectorized")

    def test_config_knob_rejected_value(self):
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(
                num_tiles=1, pe_rows=8, pe_cols=8, cycle_engine="turbo"
            )

    def test_vectorized_scatter_needs_the_compiled_mesh(self):
        with pytest.raises(ConfigurationError, match="noc_engine"):
            ScalaGraphConfig(
                num_tiles=1, pe_rows=8, pe_cols=8,
                cycle_engine="vectorized", noc_engine="reference",
            )
        assert resolve_cycle_engine("auto", "reference") == "reference"
        assert resolve_cycle_engine("auto", "vectorized") == "vectorized"

    def test_unsupported_reduce(self):
        with pytest.raises(ConfigurationError) as err:
            resolve_cycle_engine("vectorized", "vectorized", np.multiply)
        for name in ("np.add", "np.minimum", "np.maximum"):
            assert name in str(err.value)
        assert (
            resolve_cycle_engine("auto", "vectorized", np.multiply)
            == "reference"
        )


class TestDifferentialEquivalence:
    """Stats-for-stats and property-for-property equality, sanitizer
    armed on both engines, warnings escalated to errors."""

    @pytest.mark.parametrize("mapping", ["rom", "som", "dom"])
    @pytest.mark.parametrize("registers", [0, 4, 16])
    def test_mappings_by_registers(self, mapping, registers):
        _assert_identical(dict(mapping=mapping, registers=registers))

    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "cc"])
    def test_algorithms(self, algorithm):
        _assert_identical(dict(algorithm=algorithm))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_schedules_replay_identically(self, seed):
        fc = FaultConfig(
            seed=seed,
            link_outages=3,
            fifo_stalls=2,
            pe_stalls=3,
            horizon=128,
            min_duration=8,
            max_duration=48,
        )
        _assert_identical(dict(registers=8, fault_config=fc))

    def test_single_slot_router_buffers(self):
        """Maximum backpressure: every injection rejection path and the
        requeue-at-head equivalence must line up."""
        _assert_identical(dict(registers=8, buffer_depth=1))

    def test_hotspot_star_graph(self):
        _assert_identical(
            dict(
                registers=4,
                algorithm="bfs",
                graph=star_graph(64),
            )
        )

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_degree_aware_window(self, window):
        """Window 1 is Fig. 19a's baseline scheduler; at 2 and 3 a line
        holds the tail of a split vertex and fresh ones."""
        _assert_identical(dict(registers=8, algorithm="sssp", window=window))

    def test_odd_register_count(self):
        # 9 registers -> 1x9 geometry (exact capacity, no quantisation).
        _assert_identical(dict(registers=9, mapping="som"))

    @pytest.mark.parametrize(
        "rows, cols, mapping",
        [(4, 8, "rom"), (8, 4, "dom")],
        ids=["4x8-rom", "8x4-dom"],
    )
    def test_rectangular_meshes_step_the_compiled_mesh(
        self, rows, cols, mapping
    ):
        """On rectangular meshes the vectorized scatter engine, stepping
        the compiled mesh, matches the full reference stack."""
        case = dict(rows=rows, cols=cols, registers=8, mapping=mapping)
        ref = _run("reference", noc_engine="reference", **case)
        vec = _run("vectorized", **case)
        assert _fingerprint(ref) == _fingerprint(vec)
        np.testing.assert_array_equal(ref.properties, vec.properties)

    @pytest.mark.parametrize("ufunc", [np.add, np.minimum, np.maximum])
    def test_reduce_parity_bit_for_bit(self, ufunc):
        """The kernel's reduces are NumPy's, signed zeros, infinities and
        NaNs included, in the register and at the SPD."""
        case = dict(registers=4, program=_SpecialValues(ufunc))
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN here
            ref = _run("reference", **case)
            vec = _run("vectorized", **case)
        assert _fingerprint(ref) == _fingerprint(vec)
        assert np.isnan(vec.properties).any()
        np.testing.assert_array_equal(
            ref.properties.view(np.int64), vec.properties.view(np.int64)
        )

    def test_other_reduce_runs_the_reference_under_auto(self):
        program = _SpecialValues(np.multiply)
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN here
            auto = _run("auto", registers=4, program=program)
            ref = _run("reference", registers=4, program=program)
        assert _fingerprint(auto) == _fingerprint(ref)
        np.testing.assert_array_equal(
            auto.properties.view(np.int64), ref.properties.view(np.int64)
        )
        with pytest.raises(ConfigurationError, match="np.minimum"):
            _run("vectorized", registers=4, program=program)


class TestRepeatedFrontierReuse:
    """A phase whose frontier repeats the previous phase's is not
    simulated again: the vectorized engine folds its values with the
    previous phase's record.  The reference never reuses, and stays the
    oracle."""

    FAULTS = FaultConfig(
        seed=1,
        link_outages=3,
        fifo_stalls=2,
        pe_stalls=3,
        horizon=128,
        min_duration=8,
        max_duration=48,
    )

    PROGRAMS = {
        "pagerank": lambda: make_algorithm("pagerank", max_iters=4),
        "add": lambda: _SpecialValuesIterated(np.add),
        "min": lambda: _SpecialValuesIterated(np.minimum),
        "max": lambda: _SpecialValuesIterated(np.maximum),
    }

    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("registers", [0, 16])
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_multi_iteration_runs_match_the_reference(
        self, program, registers, faulted
    ):
        case = dict(
            registers=registers,
            program=self.PROGRAMS[program](),
            fault_config=self.FAULTS if faulted else None,
        )
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN here
            ref = _run("reference", profiler=Profiler(), **case)
            vec = _run("vectorized", profiler=Profiler(), **case)
        assert _fingerprint(ref) == _fingerprint(vec)
        np.testing.assert_array_equal(
            ref.properties.view(np.int64), vec.properties.view(np.int64)
        )
        assert vec.stats.iterations >= 3
        reused = "cycle_sim.scatter_phases_reused"
        assert ref.profile["counters"][reused] == 0
        assert vec.profile["counters"][reused] == vec.stats.iterations - 1

    def test_pagerank_steps_only_its_first_phase(self):
        result = _run(
            "vectorized", profiler=Profiler(), algorithm="pagerank",
            max_iters=4,
        )
        profile = result.profile
        assert result.stats.iterations == 4
        assert profile["counters"]["cycle_sim.scatter_phases_reused"] == 3
        for stage in TestStageTimers.STAGES:
            assert profile["timers"][f"cycle_sim.{stage}"]["calls"] == (
                result.stats.scatter_cycles[0]
            )

    def test_bfs_reuses_nothing(self):
        result = _run("vectorized", profiler=Profiler(), algorithm="bfs")
        profile = result.profile
        assert result.stats.iterations > 1
        assert profile["counters"]["cycle_sim.scatter_phases_reused"] == 0
        assert profile["timers"]["cycle_sim.noc_step"]["calls"] == sum(
            result.stats.scatter_cycles
        )


class TestDrainModeFaultWindows:
    """Fault windows whose edges fall inside the phase's drain tail.

    The vectorized engine's kernel runs every cycle of a phase in one
    loop, one call per fault window: Python loads the masks at each
    ``FaultSchedule.next_boundary_cycle`` edge.  These cases pin
    explicit windows — including windows nested strictly *inside* an
    all-PE stall window while the egress queues are already drained —
    and require the fingerprint to stay integer-identical to the
    reference engine, with the sanitizer armed on both runs.

    Placement is calibrated to the 8x8 PageRank workload: each scatter
    phase runs ~34 phase-local cycles, so an all-PE stall opening in
    the mid-20s lands after egress drains while update packets are
    still in flight — a state the engine once fast-forwarded through
    and now steps cycle by cycle, as the reference does.
    """

    @staticmethod
    def _schedule(links=(), fifos=(), pes=()):
        """Factory building a schedule with explicit windows and a
        counter on ``next_boundary_cycle`` (the vectorized engine calls
        it at each window edge), exposed as
        ``factory.last``."""

        def build():
            sched = FaultSchedule(
                MeshTopology(8, 8),
                FaultConfig(
                    seed=0, link_outages=0, fifo_stalls=0, pe_stalls=0
                ),
            )
            sched.link_outages.extend(LinkOutage(*w) for w in links)
            sched.fifo_stalls.extend(FifoStall(*w) for w in fifos)
            sched.pe_stalls.extend(PEStallWindow(*w) for w in pes)
            sched.boundary_calls = 0
            orig = FaultSchedule.next_boundary_cycle

            def counting(cycle):
                sched.boundary_calls += 1
                return orig(sched, cycle)

            sched.next_boundary_cycle = counting
            build.last = sched
            return sched

        return build

    def _differential(self, **windows):
        factory = self._schedule(**windows)
        ref = _run("reference", fault_schedule=factory)
        vec = _run("vectorized", fault_schedule=factory)
        vec_schedule = factory.last
        assert _fingerprint(ref) == _fingerprint(vec)
        np.testing.assert_array_equal(ref.properties, vec.properties)
        return vec, vec_schedule

    ALL_PE_STALL = [(pe, 24, 124) for pe in range(64)]

    def test_stall_gap_fast_forward_engages_and_matches(self):
        vec, sched = self._differential(pes=self.ALL_PE_STALL)
        # The window really degraded the run, and the vectorized engine
        # really split its kernel calls at the window's edges.
        assert vec.stats.degraded_cycles > 0
        assert sched.boundary_calls > 0

    def test_link_outage_nested_inside_stall_gap(self):
        # The outage's open/close edges fall inside the stall window;
        # the mesh is empty there, so degraded/rerouted accounting must
        # come out exactly as the reference's cycle-by-cycle walk.
        vec, sched = self._differential(
            pes=self.ALL_PE_STALL, links=[(9, EAST, 50, 80)]
        )
        assert vec.stats.degraded_cycles > 0
        assert sched.boundary_calls > 0

    def test_fifo_stall_nested_inside_stall_gap(self):
        vec, sched = self._differential(
            pes=self.ALL_PE_STALL, fifos=[(18, SOUTH, 40, 90)]
        )
        assert vec.stats.degraded_cycles > 0
        assert sched.boundary_calls > 0

    def test_fifo_stall_freezing_in_flight_drain_traffic(self):
        # Mesh is NOT inert here: frozen FIFOs hold live packets that
        # move again when the windows close.
        vec, _ = self._differential(
            fifos=[(27, SOUTH, 28, 60), (9, EAST, 30, 55)]
        )
        assert vec.stats.total_cycles > 0

    def test_link_outage_rerouting_during_drain(self):
        vec, _ = self._differential(
            links=[(9, EAST, 26, 60), (36, SOUTH, 20, 50)]
        )
        assert vec.stats.rerouted_packets > 0
        assert vec.stats.degraded_cycles > 0


class TestCycleEngineFallback:
    @pytest.fixture
    def broken_vectorized(self, monkeypatch):
        import repro.core.cycle_sim as cycle_sim

        def explode(*args, **kwargs):
            raise SanitizerError(
                "test-invariant", "injected failure", cycle=0
            )

        monkeypatch.setattr(cycle_sim, "scatter_phase_fast", explode)

    def test_sanitizer_error_reaches_the_caller(self, broken_vectorized):
        config = ScalaGraphConfig(
            num_tiles=1, pe_rows=8, pe_cols=8, cycle_engine="vectorized"
        )
        sim = CycleAccurateScalaGraph(config, sanitize=True)
        with pytest.raises(SanitizerError):
            sim.run(make_algorithm("bfs"), GRAPH)


class TestKernelStateAudits:
    """State the kernel keeps between calls, corrupted where the
    sanitizer hooks see it, must trip those hooks: the run raises the
    violated invariant."""

    @staticmethod
    def _bump_occupancy(batch, *args, **kwargs):
        batch.occ[5] += 1  # the register array's live buffer

    @staticmethod
    def _overfill_fifo(occupancies, depth, *args, **kwargs):
        occupancies[5, 0] = depth + 1  # the mesh's live FIFO counts

    CASES = [
        ("check_aggregation_ledger_arrays", "_bump_occupancy",
         "aggregation-ledger"),
        ("check_fifo_depth_array", "_overfill_fifo", "fifo-depth"),
    ]

    @pytest.fixture(params=CASES, ids=[c[2] for c in CASES])
    def corrupted(self, request, monkeypatch):
        hook, corrupt, invariant = request.param
        original = getattr(SimSanitizer, hook)

        def corrupting(san, state, *args, **kwargs):
            getattr(self, corrupt)(state, *args, **kwargs)
            return original(san, state, *args, **kwargs)

        monkeypatch.setattr(SimSanitizer, hook, corrupting)
        return invariant

    @staticmethod
    def _sim(engine):
        config = ScalaGraphConfig(
            num_tiles=1, pe_rows=8, pe_cols=8, cycle_engine=engine,
            noc_engine=engine,
        )
        return CycleAccurateScalaGraph(config, sanitize=True)

    def test_corruption_raises(self, corrupted):
        with pytest.raises(SanitizerError) as err:
            self._sim("vectorized").run(make_algorithm("bfs"), GRAPH)
        assert err.value.invariant == corrupted


class TestStageTimers:
    """The kernel's per-stage host time, added to an attached Profiler."""

    STAGES = ("dispatch", "egress", "noc_step", "retire")

    def test_profiling_changes_nothing(self):
        profiled = _run("vectorized", profiler=Profiler())
        plain = _run("vectorized")
        assert _fingerprint(profiled) == _fingerprint(plain)
        np.testing.assert_array_equal(profiled.properties, plain.properties)

    def test_stage_timers(self):
        """The stage timers count the cycles actually stepped: PageRank's
        second phase repeats the first one's frontier and is reused, so
        only the first phase's cycles are stepped."""
        result = _run("vectorized", profiler=Profiler())
        timers = result.profile["timers"]
        steps = timers["cycle_sim.noc_step"]["calls"]
        reused = result.profile["counters"]["cycle_sim.scatter_phases_reused"]
        assert reused == result.stats.iterations - 1 == 1
        assert steps == result.stats.scatter_cycles[0]
        stages = sum(
            timers[f"cycle_sim.{stage}"]["total_seconds"]
            for stage in self.STAGES
        )
        assert 0 < stages <= timers["cycle_sim.scatter"]["total_seconds"]


class TestFoldBounds:
    """``fs_fold`` writes one partial per slot of the buffer the record
    allocates (updates that did not coalesce), so a record whose counts
    disagree with its partial ids is refused, not written past."""

    def _record(self):
        config = ScalaGraphConfig(
            num_tiles=1, pe_rows=4, pe_cols=4, aggregation_registers=16,
            cycle_engine="vectorized",
        )
        sim = CycleAccurateScalaGraph(config, sanitize=False)
        src, dst, _ = gather_frontier_edges(
            GRAPH, np.arange(GRAPH.num_vertices)
        )
        return fastsim._simulate(sim, GRAPH, src, dst, 100_000)

    def test_the_kernel_stops_at_the_last_slot(self):
        record = self._record()
        slots = record.updates - record.coalesced
        n = GRAPH.num_vertices
        buffers = {  # held here: the table keeps only their addresses
            "values": np.ones(record.updates),
            "partial": np.empty(slots),
            "vtemp": np.zeros(n),
            "touched": np.zeros(n, dtype=bool),
        }
        record.bind(**buffers)

        def fold(limit):
            return record.kernel.fold(
                record.table.ctypes.data, record.spd_end.size,
                record.updates, limit,
            )

        assert fold(slots) == slots
        assert fold(slots - 1) == -1

    @pytest.mark.parametrize("miscount", [1, -1])
    def test_a_miscounted_record_is_refused(self, miscount):
        record = self._record()
        assert record.coalesced > 0
        record.coalesced += miscount
        n = GRAPH.num_vertices
        with pytest.raises(SimulationError, match="compiled fold"):
            record.fold(
                np.ones(record.updates), 0, np.zeros(n),
                np.zeros(n, dtype=bool),
            )


class TestKernelLoads:
    def test_one_load_per_phase(self, monkeypatch):
        """Each simulated phase's mesh loads the kernel, and the scatter
        phase runs on the mesh's copy; the run resolves the engine with
        one more load.  ``load`` hashes ``meshkernel.c`` on every call,
        so a second load per phase costs a read and a hash of the
        source.  A 6-phase BFS makes 7 calls (13 with two per phase)."""
        calls = []
        load = meshkernel.load

        def counted_load():
            calls.append(1)
            return load()

        monkeypatch.setattr(meshkernel, "load", counted_load)
        result = _run(
            "vectorized", rows=4, cols=4, algorithm="bfs",
            graph=grid_graph(3, 4),
        )
        assert len(result.stats.scatter_cycles) == 6
        assert len(calls) == 7


class TestPhaseMemory:
    """A simulated PageRank phase traces about 48 bytes per edge at its
    peak, while the program computes the values: the gathered sources
    (8 bytes), the record's four int32 buffers (dispatch order, partial
    ids, SPD queue vertices and partial ids: 16 bytes) and
    ``scatter_value``'s three float64 arrays (24 bytes).  While the
    kernel runs it holds 40: the sources and eight int32 buffers (the
    execution PEs, the row dispatchers' grouping, the dispatch order,
    the partial ids and the out and SPD queues' vertex and partial
    ids).  With int64 buffers and a dispatch-order copy of the values
    in the fold, the phase traced 80 bytes per edge."""

    BYTES_PER_EDGE = 56

    def test_pagerank_phase_traces_under_the_per_edge_budget(self):
        graph = rmat_graph(12, edge_factor=16, seed=1)
        config = ScalaGraphConfig(
            num_tiles=1, pe_rows=8, pe_cols=8, aggregation_registers=16,
            cycle_engine="vectorized",
        )
        sim = CycleAccurateScalaGraph(config, sanitize=False)
        program = make_algorithm("pagerank", max_iters=1)
        meshkernel.load()  # build the kernel outside the trace
        tracemalloc.start()
        try:
            result = sim.run(program, graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.stats.iterations == 1
        assert peak / graph.num_edges <= self.BYTES_PER_EDGE

    @pytest.mark.parametrize("updates,vertices", [(2**31, 4), (4, 2**31)])
    def test_ids_beyond_int32_are_refused(self, updates, vertices):
        """The per-edge buffers hold int32 edge positions and vertex and
        partial ids, so a phase of 2**31 updates or vertices is refused
        before anything is allocated.  The stand-ins are zero-stride,
        and the execution PE lies outside the mesh, so a phase without
        the check fails on that instead of allocating."""
        network = FastMeshNetwork(MeshTopology(2, 2))
        dst = np.broadcast_to(np.int64(0), updates)
        home = np.broadcast_to(np.int64(0), vertices)
        exec_pe = np.full(1, -1, dtype=np.int32)
        with pytest.raises(ConfigurationError, match="int32"):
            fastsim._Phase(
                network, None, dst, dst, exec_pe, dst, home, 1, 10, False
            )
