"""HBM, scratchpad, and memory-request model tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memory.hbm import HBMConfig, HBMModel
from repro.memory.request import cachelines_touched
from repro.memory.spd import ScratchpadConfig


class TestHBMConfig:
    def test_u280_defaults(self):
        cfg = HBMConfig()
        assert cfg.num_stacks == 2
        assert cfg.num_pseudo_channels == 32
        assert cfg.total_bandwidth_gbs == 460.0

    def test_unbounded(self):
        assert HBMConfig.unbounded().total_bandwidth_gbs >= 1e8

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            HBMConfig(num_stacks=0)
        with pytest.raises(ConfigurationError):
            HBMConfig(total_bandwidth_gbs=-1)
        with pytest.raises(ConfigurationError):
            HBMConfig(access_granularity=0)


class TestHBMModel:
    def test_bytes_per_cycle_at_250mhz(self):
        model = HBMModel(HBMConfig(), 250e6)
        assert model.bytes_per_cycle == pytest.approx(1840.0)

    def test_stream_cycles_linear(self):
        model = HBMModel(HBMConfig(), 250e6)
        one = model.stream_cycles(1 << 20)
        two = model.stream_cycles(2 << 20)
        assert two == pytest.approx(2 * one)

    def test_stream_rounds_to_lines(self):
        model = HBMModel(HBMConfig(), 250e6)
        assert model.stream_cycles(1) == model.stream_cycles(64)

    def test_paper_throughput_identity(self):
        """Section I: at 250 MHz with 4-byte edges, 1 TB/s feeds 1,024
        edges per cycle."""
        model = HBMModel(HBMConfig(total_bandwidth_gbs=1024.0), 250e6)
        edges_per_cycle = model.bytes_per_cycle / 4
        assert edges_per_cycle == pytest.approx(1024, rel=0.01)

    def test_zero_traffic(self):
        model = HBMModel(HBMConfig(), 250e6)
        assert model.stream_cycles(0) == 0.0

    def test_rejects_bad_frequency(self):
        with pytest.raises(ConfigurationError):
            HBMModel(HBMConfig(), 0)


class TestScratchpad:
    def test_paper_capacity(self):
        """6 MB at 8 B/vertex holds 786,432 vertex properties."""
        cfg = ScratchpadConfig()
        assert cfg.capacity_vertices == 786_432

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            ScratchpadConfig(total_bytes=0)


class TestRequests:

    def test_cachelines_touched_dedup(self):
        addrs = np.array([0, 4, 8, 64, 68])
        assert cachelines_touched(addrs, 64) == 2

    def test_cachelines_touched_empty(self):
        assert cachelines_touched(np.array([]), 64) == 0

    @pytest.mark.parametrize(
        "addresses",
        [
            np.random.default_rng(0).integers(0, 1 << 20, 5000),
            np.random.default_rng(1).integers(-(1 << 16), 1 << 16, 3000),
            np.array([], dtype=np.int64),
            np.array([100, 101, 127, 64]),
            np.array([-1, -64, -65, -200, 0, 63]),
        ],
        ids=["random", "negative", "empty", "single-line", "around-zero"],
    )
    def test_cachelines_touched_counts_distinct_lines(self, addresses):
        """The count equals the number of distinct line indices."""
        for line_size in (32, 64):
            want = np.unique(addresses // line_size).size
            assert cachelines_touched(addresses, line_size) == want

    def test_cachelines_worst_case_amplification(self):
        """Section II-A: up to 129x more traffic when every 4-byte access
        lands on a distinct line — each access moves a full line."""
        addrs = np.arange(0, 129 * 64, 64)
        assert cachelines_touched(addrs, 64) == 129
