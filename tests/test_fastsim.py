"""Vectorized scatter-phase engine: differential equivalence gates.

The contract under test (see ``repro/core/fastsim.py``): with
``cycle_engine='vectorized'`` the cycle-accurate simulator produces
**identical** stats (integer for integer) and **identical** computed
properties (bit for bit) to the reference ``_scatter_phase``, for any
mapping x register count x algorithm x fault schedule, with the
SimSanitizer armed on both paths and warnings escalated to errors.
"""

import warnings

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.config import ScalaGraphConfig
from repro.core.cycle_sim import CycleAccurateScalaGraph
from repro.core.fastsim import (
    AUTO_CYCLE_ENGINE_MIN_NODES,
    resolve_cycle_engine,
)
from repro.errors import (
    ConfigurationError,
    EngineFallbackWarning,
    SanitizerError,
)
from repro.faults.schedule import (
    FaultConfig,
    FaultSchedule,
    FifoStall,
    LinkOutage,
    PEStallWindow,
)
from repro.graph.generators import rmat_graph, star_graph
from repro.noc.fastmesh import FastMeshNetwork
from repro.noc.mesh import EAST, SOUTH
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology

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
    **alg_kwargs,
):
    cfg_kwargs = dict(
        num_tiles=1,
        pe_rows=rows,
        pe_cols=cols,
        aggregation_registers=registers,
        mapping=mapping,
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
    sim_kwargs = dict(sanitize=True, faults=faults)
    if buffer_depth is not None:
        sim_kwargs["noc_buffer_depth"] = buffer_depth
    sim = CycleAccurateScalaGraph(config, **sim_kwargs)
    if algorithm == "pagerank":
        alg_kwargs.setdefault("max_iters", 2)
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


class TestResolveCycleEngine:
    def test_auto_small_mesh_is_reference(self):
        assert resolve_cycle_engine("auto", MeshTopology(4, 4)) == "reference"

    def test_auto_large_mesh_is_vectorized(self):
        topo = MeshTopology(8, 8)
        assert topo.num_nodes >= AUTO_CYCLE_ENGINE_MIN_NODES
        assert resolve_cycle_engine("auto", topo) == "vectorized"

    def test_explicit_names_pass_through(self):
        topo = MeshTopology(4, 4)
        assert resolve_cycle_engine("reference", topo) == "reference"
        assert resolve_cycle_engine("VECTORIZED", topo) == "vectorized"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_cycle_engine("turbo", MeshTopology(4, 4))

    def test_config_knob_rejected_value(self):
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(
                num_tiles=1, pe_rows=8, pe_cols=8, cycle_engine="turbo"
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

    def test_window_one_baseline_scheduler(self):
        _assert_identical(dict(registers=8, algorithm="sssp", window=1))

    def test_odd_register_count(self):
        # 9 registers -> 1x9 geometry (exact capacity, no quantisation).
        _assert_identical(dict(registers=9, mapping="som"))

    def test_small_mesh_uses_reference_noc(self):
        """Below the NoC auto-threshold the vectorized scatter engine
        drives the reference MeshNetwork (Packet-object delivery path)."""
        _assert_identical(dict(rows=4, cols=8, registers=8))


class TestDrainModeFaultWindows:
    """Fault windows whose edges fall inside drain-mode batched gaps.

    The vectorized engine's drain loop fast-forwards through provably
    inert cycle ranges (idle mesh gaps, and all-stalled SPD windows via
    ``FaultSchedule.next_boundary_cycle``).  These cases pin explicit
    windows — including windows nested strictly *inside* a
    fast-forwarded stall gap — and require the fingerprint to stay
    integer-identical to the reference engine, which steps every one of
    those cycles, with the sanitizer armed on both runs.

    Placement is calibrated to the 8x8 PageRank workload: each scatter
    phase runs ~34 phase-local cycles, so an all-PE stall opening in
    the mid-20s lands after egress drains (drain mode active) while
    update packets are still in flight — the exact state the
    stall-window fast-forward handles.
    """

    @staticmethod
    def _schedule(links=(), fifos=(), pes=()):
        """Factory building a schedule with explicit windows and a
        counter on ``next_boundary_cycle`` (only the drain-mode
        stall fast-forward calls it), exposed as ``factory.last``."""

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
        # The window really degraded the run, and the vectorized drain
        # loop really jumped (boundary queries happen nowhere else).
        assert vec.stats.degraded_cycles > 0
        assert sched.boundary_calls > 0

    def test_link_outage_nested_inside_stall_gap(self):
        # The outage's open/close edges split the fast-forwarded jump;
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
        # Mesh is NOT inert here: frozen FIFOs hold live packets, so
        # the drain loop must keep stepping real cycles instead of
        # fast-forwarding past a state that can still change.
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

    def test_fallback_warns_and_matches_reference(self, broken_vectorized):
        config = ScalaGraphConfig(
            num_tiles=1, pe_rows=8, pe_cols=8, cycle_engine="vectorized"
        )
        sim = CycleAccurateScalaGraph(config, sanitize=True)
        with pytest.warns(EngineFallbackWarning) as record:
            result = sim.run(make_algorithm("bfs"), GRAPH)
        assert "cycle:vectorized" in str(record[0].message)
        ref = _run("reference", algorithm="bfs")
        assert _fingerprint(result) == _fingerprint(ref)
        np.testing.assert_array_equal(result.properties, ref.properties)

    def test_fallback_disabled_raises(self, broken_vectorized):
        config = ScalaGraphConfig(
            num_tiles=1,
            pe_rows=8,
            pe_cols=8,
            cycle_engine="vectorized",
            noc_engine_fallback=False,
        )
        sim = CycleAccurateScalaGraph(config, sanitize=True)
        with pytest.raises(SanitizerError):
            sim.run(make_algorithm("bfs"), GRAPH)


class TestInjectBatch:
    """Batched injection must equal sequential inject(), including
    same-source competition for the router's remaining buffer space."""

    def _nets(self, depth=2):
        topo = MeshTopology(4, 4)
        return (
            FastMeshNetwork(topo, buffer_depth=depth),
            FastMeshNetwork(topo, buffer_depth=depth),
        )

    def test_duplicate_sources_rank_in_argument_order(self, monkeypatch):
        batched, sequential = self._nets(depth=2)
        srcs = np.array([5, 5, 5, 2, 5])
        dsts = np.array([0, 1, 2, 3, 4])
        vtx = np.arange(5)
        val = np.ones(5)
        ok_b = batched.inject_batch(srcs, dsts, vtx, val)
        ok_s = np.array(
            [
                sequential.inject(
                    Packet(src=int(s), dst=int(d), vertex=int(v), value=1.0)
                )
                for s, d, v in zip(srcs, dsts, vtx)
            ]
        )
        # Two slots at node 5: first two same-source entries win.
        np.testing.assert_array_equal(ok_b, [True, True, False, True, False])
        np.testing.assert_array_equal(ok_b, ok_s)
        np.testing.assert_array_equal(
            batched._count.ravel(), sequential._count.ravel()
        )

    def test_bounds_checked(self):
        net, _ = self._nets()
        with pytest.raises(ConfigurationError):
            net.inject_batch(
                np.array([0]), np.array([99]), np.array([0]), np.ones(1)
            )

    def test_empty_batch(self):
        net, _ = self._nets()
        assert net.inject_batch(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([]),
        ).size == 0


class TestLeanPackets:
    def test_object_entry_points_rejected(self):
        net = FastMeshNetwork(MeshTopology(4, 4), lean_packets=True)
        with pytest.raises(ConfigurationError):
            net.inject(Packet(src=0, dst=1))
        with pytest.raises(ConfigurationError):
            net.schedule(Packet(src=0, dst=1))

    def test_delivery_views_match_object_mode(self):
        """Same workload, lean and object mode: identical stats and
        identical (dst, vertex, value) delivery streams; lean mode just
        never materialises Packet objects."""
        topo = MeshTopology(4, 4)
        lean = FastMeshNetwork(topo, lean_packets=True)
        full = FastMeshNetwork(topo, lean_packets=False)
        rng = np.random.default_rng(7)
        for _ in range(40):
            srcs = rng.integers(0, 16, 8)
            dsts = rng.integers(0, 16, 8)
            vtx = rng.integers(0, 1000, 8)
            val = rng.random(8)
            ok_l = lean.inject_batch(srcs, dsts, vtx, val)
            ok_f = full.inject_batch(srcs, dsts, vtx, val)
            np.testing.assert_array_equal(ok_l, ok_f)
            lean.step()
            full.step()
        for _ in range(200):
            if not (lean.total_occupancy() or full.total_occupancy()):
                break
            lean.step()
            full.step()
        assert lean.stats == full.stats
        assert lean.delivered == []  # the point of lean mode
        assert lean._pkts == []  # lean packets are only counted
        assert lean.delivered_count() == full.delivered_count()
        assert full.delivered_count() == len(full.delivered)
        l_dst, l_vtx, l_val = lean.delivered_arrays()
        f_dst, f_vtx, f_val = full.delivered_arrays()
        np.testing.assert_array_equal(l_dst, f_dst)
        np.testing.assert_array_equal(l_vtx, f_vtx)
        np.testing.assert_array_equal(l_val, f_val)
        np.testing.assert_array_equal(
            f_dst, [p.dst for p in full.delivered]
        )
        np.testing.assert_array_equal(
            f_vtx, [p.vertex for p in full.delivered]
        )
