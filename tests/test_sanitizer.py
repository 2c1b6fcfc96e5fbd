"""SimSanitizer: every invariant fires on a corrupted run, and a
sanitized end-to-end simulation matches the unsanitized one bit for bit.
"""

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.analysis import (
    REPRO_SANITIZE_ENV,
    SanitizerError,
    SimSanitizer,
    maybe_sanitizer,
    sanitizer_enabled,
)
from repro.core import CycleAccurateScalaGraph, ScalaGraphConfig
from repro.core.cycle_sim import CycleStats
from repro.errors import ReproError, SimulationError
from repro.graph.generators import rmat_graph
from repro.noc.aggregation import AggregationPipeline
from repro.noc.mesh import MeshNetwork
from repro.noc.packet import Packet
from repro.noc.patterns import drain
from repro.noc.router import LOCAL
from repro.noc.topology import MeshTopology


ENGINES = ["reference", "vectorized"]


def small_config(engine="reference", **kwargs):
    """A 4x4 single tile with both engine fields set to ``engine``."""
    defaults = dict(
        num_tiles=1, pe_rows=4, pe_cols=4,
        noc_engine=engine, cycle_engine=engine,
    )
    defaults.update(kwargs)
    return ScalaGraphConfig(**defaults)


def make_mesh(depth=4):
    topology = MeshTopology(rows=2, cols=2)
    return MeshNetwork(
        topology,
        buffer_depth=depth,
        sanitizer=SimSanitizer(context="test-mesh"),
    )


class TestOptInGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(REPRO_SANITIZE_ENV, raising=False)
        assert not sanitizer_enabled()
        assert maybe_sanitizer() is None

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(REPRO_SANITIZE_ENV, value)
        assert sanitizer_enabled()
        assert isinstance(maybe_sanitizer(), SimSanitizer)

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "maybe"])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(REPRO_SANITIZE_ENV, value)
        assert not sanitizer_enabled()
        assert maybe_sanitizer() is None

    def test_explicit_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv(REPRO_SANITIZE_ENV, "1")
        assert maybe_sanitizer(False) is None
        monkeypatch.delenv(REPRO_SANITIZE_ENV)
        sanitizer = maybe_sanitizer(True, context="forced")
        assert sanitizer is not None and sanitizer.context == "forced"


class TestErrorStructure:
    def test_sanitizer_error_is_structured(self):
        sanitizer = SimSanitizer(context="unit")
        sanitizer.begin_epoch("scatter[3]")
        with pytest.raises(SanitizerError) as exc:
            sanitizer.check_fifo_depth(9, 4, where="router 0", cycle=17)
        err = exc.value
        assert err.invariant == "fifo-depth"
        assert err.cycle == 17
        assert err.context == "unit/scatter[3]"
        assert isinstance(err, SimulationError)
        assert isinstance(err, ReproError)
        assert "fifo-depth" in str(err) and "cycle 17" in str(err)

    def test_cycle_omitted_from_message_when_unknown(self):
        sanitizer = SimSanitizer()
        with pytest.raises(SanitizerError) as exc:
            sanitizer.check_spd_accounting(
                spd_reduces=1, updates=3, coalesced=0
            )
        assert exc.value.cycle is None
        assert "at cycle" not in str(exc.value)


class TestInvariantUnits:
    """Each check accepts a consistent ledger and rejects a corrupt one."""

    def test_cycle_monotonic(self):
        sanitizer = SimSanitizer()
        sanitizer.begin_epoch("a")
        sanitizer.check_cycle_monotonic(1)
        sanitizer.check_cycle_monotonic(2)
        with pytest.raises(SanitizerError, match="cycle-monotonic"):
            sanitizer.check_cycle_monotonic(2)

    def test_begin_epoch_resets_cycle_scope(self):
        sanitizer = SimSanitizer()
        sanitizer.begin_epoch("a")
        sanitizer.check_cycle_monotonic(10)
        sanitizer.begin_epoch("b")  # a new phase restarts at zero
        sanitizer.check_cycle_monotonic(0)

    def test_fifo_depth_boundary(self):
        sanitizer = SimSanitizer()
        sanitizer.check_fifo_depth(4, 4, where="router 0 port local")
        with pytest.raises(SanitizerError, match="fifo-depth"):
            sanitizer.check_fifo_depth(5, 4, where="router 0 port local")

    def test_conservation(self):
        sanitizer = SimSanitizer()
        sanitizer.check_conservation(
            injected=10, delivered=6, coalesced=3, in_flight=1, where="mesh"
        )
        with pytest.raises(SanitizerError, match="update-conservation"):
            sanitizer.check_conservation(
                injected=10, delivered=6, coalesced=3, in_flight=0,
                where="mesh",
            )

    def test_spd_accounting(self):
        sanitizer = SimSanitizer()
        sanitizer.check_spd_accounting(spd_reduces=7, updates=10, coalesced=3)
        with pytest.raises(SanitizerError, match="spd-accounting"):
            sanitizer.check_spd_accounting(
                spd_reduces=8, updates=10, coalesced=3
            )

    def test_checks_run_counter(self):
        sanitizer = SimSanitizer()
        sanitizer.check_cycle_monotonic(1)
        sanitizer.check_fifo_depth(0, 4, where="x")
        assert sanitizer.checks_run == 2


class TestCorruptedMesh:
    """Deliberately corrupt a live mesh and watch each invariant trip."""

    def test_fifo_overflow_detected(self):
        network = make_mesh(depth=2)
        # Bypass Router.accept (which enforces depth) to model a
        # backpressure bug: stuff the local FIFO far beyond its depth.
        for _ in range(5):
            network.routers[0].inputs[LOCAL].append(Packet(src=0, dst=3))
        with pytest.raises(SanitizerError) as exc:
            network.step()
        assert exc.value.invariant == "fifo-depth"

    def test_injection_ledger_tamper_detected(self):
        network = make_mesh()
        assert network.inject(Packet(src=0, dst=3))
        network.stats.injected += 3  # phantom packets on the debit side
        with pytest.raises(SanitizerError) as exc:
            network.step()
        assert exc.value.invariant == "update-conservation"

    def test_dropped_packet_detected(self):
        network = make_mesh()
        assert network.inject(Packet(src=0, dst=3))
        network.routers[0].inputs[LOCAL].clear()  # silently drop it
        with pytest.raises(SanitizerError) as exc:
            network.step()
        assert exc.value.invariant == "update-conservation"

    def test_cycle_rewind_detected(self):
        network = make_mesh()
        assert network.inject(Packet(src=0, dst=3))
        network.step()
        network.cycle = -1  # clock corruption: time runs backwards
        with pytest.raises(SanitizerError) as exc:
            network.step()
        assert exc.value.invariant == "cycle-monotonic"

    def test_clean_mesh_run_is_quiet(self):
        network = make_mesh()
        stats = drain(
            network, [Packet(src=i, dst=(i + 1) % 4) for i in range(4)]
        )
        assert stats.delivered == 4
        assert network.sanitizer.checks_run > 0


class TestCorruptedAggregation:
    def test_ledger_tamper_detected(self):
        pipeline = AggregationPipeline(
            sanitizer=SimSanitizer(context="test-agg")
        )
        assert pipeline.offer(3, 1.0) == "stored"
        pipeline.stats.offered += 1  # an update that never existed
        with pytest.raises(SanitizerError) as exc:
            pipeline.offer(3, 2.0)
        assert exc.value.invariant == "aggregation-ledger"

    def test_occupancy_out_of_bounds_detected(self):
        sanitizer = SimSanitizer()
        pipeline = AggregationPipeline(num_stages=1, num_columns=1)
        pipeline.occupancy = lambda: 99  # impossible register count
        with pytest.raises(SanitizerError, match="aggregation-ledger"):
            sanitizer.check_aggregation_ledger(pipeline)

    def test_clean_pipeline_is_quiet(self):
        pipeline = AggregationPipeline(
            sanitizer=SimSanitizer(context="test-agg")
        )
        for vertex in (1, 2, 1, 3, 1):
            pipeline.offer(vertex, 1.0)
        assert pipeline.stats.coalesced == 2
        assert pipeline.sanitizer.checks_run > 0


class TestSanitizedCycleSim:
    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(6, edge_factor=6, seed=7)

    def test_sanitized_run_matches_plain(self, graph):
        program = PageRank(max_iters=3)
        for engine in ENGINES:
            plain = CycleAccurateScalaGraph(
                small_config(engine), sanitize=False
            ).run(program, graph)
            sim = CycleAccurateScalaGraph(small_config(engine), sanitize=True)
            checked = sim.run(program, graph)
            assert sim.sanitizer is not None
            assert sim.sanitizer.checks_run > 0
            assert np.array_equal(checked.properties, plain.properties)
            assert checked.stats.total_cycles == plain.stats.total_cycles
            assert checked.stats.spd_reduces == plain.stats.spd_reduces

    def test_environment_arms_the_simulator(self, monkeypatch, graph):
        monkeypatch.setenv(REPRO_SANITIZE_ENV, "1")
        for engine in ENGINES:
            sim = CycleAccurateScalaGraph(small_config(engine))
            assert sim.sanitizer is not None
            result = sim.run(BFS(), graph)
            assert result.converged
            assert sim.sanitizer.checks_run > 0

    def test_run_totals_tamper_detected(self, graph):
        sim = CycleAccurateScalaGraph(small_config(), sanitize=True)
        stats = CycleStats(
            updates_processed=10,
            updates_coalesced=2,
            spd_reduces=8,
            phase_updates=[10],
            phase_coalesced=[2],
            phase_spd_reduces=[8],
        )
        sim._check_run_totals(stats)  # consistent: passes
        stats.spd_reduces = 9  # one duplicated Reduce
        with pytest.raises(SanitizerError) as exc:
            sim._check_run_totals(stats)
        assert exc.value.invariant == "update-conservation"

    def test_phase_sum_mismatch_detected(self, graph):
        sim = CycleAccurateScalaGraph(small_config(), sanitize=True)
        stats = CycleStats(
            updates_processed=10,
            updates_coalesced=2,
            spd_reduces=8,
            phase_updates=[7],  # lost a phase's worth of updates
            phase_coalesced=[2],
            phase_spd_reduces=[8],
        )
        with pytest.raises(SanitizerError, match="update-conservation"):
            sim._check_run_totals(stats)
