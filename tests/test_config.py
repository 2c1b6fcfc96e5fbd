"""ScalaGraphConfig and TimingParams tests."""

import pytest

from repro.core.config import ScalaGraphConfig, TimingParams
from repro.errors import ConfigurationError


class TestGeometry:
    def test_flagship_is_512(self):
        cfg = ScalaGraphConfig()
        assert cfg.num_pes == 512
        assert cfg.num_tiles == 2
        assert cfg.pes_per_tile == 256
        assert cfg.total_cols == 32

    def test_with_pes_follows_paper_recipe(self):
        """Section V-E: 32 PEs => a 16x1 matrix per tile."""
        cfg = ScalaGraphConfig().with_pes(32)
        assert cfg.pe_cols == 1
        assert cfg.num_pes == 32
        cfg = ScalaGraphConfig().with_pes(1024)
        assert cfg.pe_cols == 32

    def test_with_pes_rejects_partial_columns(self):
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig().with_pes(48)  # 24 per tile: 1.5 columns
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig().with_pes(100)

    def test_clock_default_is_conservative_250(self):
        """Section V-A: 'We conservatively use 250MHz'."""
        assert ScalaGraphConfig().clock_mhz == 250.0

    def test_clock_capped_by_synthesis_model(self):
        # A hypothetical 8192-PE mesh clocks below 250 MHz.
        cfg = ScalaGraphConfig(pe_cols=256)
        assert cfg.num_pes == 8192
        assert cfg.clock_mhz < 250.0

    def test_clock_override(self):
        assert ScalaGraphConfig(frequency_mhz=300.0).clock_mhz == 300.0

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(num_tiles=0)
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(pe_rows=-1)
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(mapping="ring")
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(aggregation_registers=-1)
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(degree_aware_window=0)
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(frequency_mhz=-5.0)
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(edge_bytes=0)


class TestTimingParams:
    def test_defaults_valid(self):
        TimingParams()

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigurationError):
            TimingParams(dispatch_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            TimingParams(pipelining_efficiency=1.5)

