"""Frequency, energy, and area model tests against the paper's numbers."""

import pytest

from repro.errors import ConfigurationError, SynthesisError
from repro.models.area import resource_utilization
from repro.models.energy import (
    POWER_BREAKDOWN,
    accelerator_power_watts,
    energy_joules,
    gpu_power_watts,
)
from repro.models.frequency import (
    Interconnect,
    max_frequency_mhz,
    route_failure_limit,
    synthesizes,
)


class TestFrequencyTableIV:
    """Table IV: maximal frequency (MHz) of ScalaGraph vs GraphDynS."""

    @pytest.mark.parametrize(
        "pes,expected",
        [(32, 304), (64, 293), (128, 292), (256, 285), (512, 274), (1024, 258)],
    )
    def test_scalagraph_mesh(self, pes, expected):
        assert max_frequency_mhz("mesh", pes) == pytest.approx(expected)

    @pytest.mark.parametrize("pes,expected", [(32, 270), (64, 227), (128, 112)])
    def test_graphdyns_crossbar(self, pes, expected):
        assert max_frequency_mhz("crossbar", pes) == pytest.approx(expected)

    @pytest.mark.parametrize("pes", [256, 512, 1024])
    def test_crossbar_route_failure(self, pes):
        """Table IV's '-' entries: synthesis fails beyond 128 PEs."""
        with pytest.raises(SynthesisError):
            max_frequency_mhz("crossbar", pes)
        assert not synthesizes("crossbar", pes)


class TestFrequencyFigure8:
    def test_mesh_supports_1024_with_small_loss(self):
        """Figure 8: mesh supports 1,024 PEs with negligible loss."""
        assert max_frequency_mhz("mesh", 1024) > 250
        assert synthesizes("mesh", 4096)

    def test_benes_and_multistage_fail_at_512(self):
        for kind in ("benes", "multistage_crossbar"):
            assert synthesizes(kind, 256)
            with pytest.raises(SynthesisError):
                max_frequency_mhz(kind, 512)

    def test_multistage_clock_at_256(self):
        """Section VI: a multi-stage crossbar reaches 256 PEs, but at
        98 MHz, about a third of the mesh's clock."""
        assert max_frequency_mhz("multistage_crossbar", 256) == pytest.approx(
            98.0
        )

    def test_complexity_ordering(self):
        """At any synthesizable size, lower-complexity interconnects
        clock at least as high: mesh >= multistage/benes >= crossbar."""
        for pes in (32, 64, 128):
            mesh = max_frequency_mhz("mesh", pes)
            benes = max_frequency_mhz("benes", pes)
            xbar = max_frequency_mhz("crossbar", pes)
            assert mesh >= benes >= xbar or mesh >= xbar

    def test_benes_halving_16_to_64(self):
        """Reference [38]: Benes frequency roughly halves from 16 to 64
        PEs (1.5 GHz -> 0.6 GHz in the ASIC study)."""
        ratio = max_frequency_mhz("benes", 16) / max_frequency_mhz("benes", 64)
        assert 1.3 < ratio < 2.6

    def test_monotone_decreasing(self):
        for kind in Interconnect:
            limit = min(route_failure_limit(kind), 2048)
            freqs = []
            pes = 4
            while pes <= limit:
                freqs.append(max_frequency_mhz(kind, pes))
                pes *= 2
            assert freqs == sorted(freqs, reverse=True)

    def test_interpolation_between_points(self):
        f96 = max_frequency_mhz("crossbar", 96)
        assert max_frequency_mhz("crossbar", 128) < f96 < max_frequency_mhz("crossbar", 64)

    def test_parse_and_errors(self):
        assert Interconnect.parse("MESH") is Interconnect.MESH
        with pytest.raises(ConfigurationError):
            Interconnect.parse("ring")
        with pytest.raises(ConfigurationError):
            max_frequency_mhz("mesh", 0)


class TestEnergyModel:
    def test_breakdown_sums_to_one(self):
        assert sum(POWER_BREAKDOWN.values()) == pytest.approx(1.0)

    def test_figure16_fractions(self):
        """Figure 16 pie: HBM 65.43%, SPD 16.30%, RU 5.25%."""
        power = accelerator_power_watts(512, "mesh", 250.0)
        breakdown = power.breakdown()
        assert breakdown["hbm"] == pytest.approx(0.6543, abs=1e-3)
        assert breakdown["spd"] == pytest.approx(0.1630, abs=1e-3)
        assert breakdown["ru"] == pytest.approx(0.0525, abs=1e-3)

    def test_noc_power_ratio_53_5_percent(self):
        """Section V-B: at 128 PEs and equal clock, ScalaGraph's NoC uses
        53.5% of the power of GraphDynS's crossbar."""
        mesh = accelerator_power_watts(128, "mesh", 250.0)
        xbar = accelerator_power_watts(128, "crossbar", 250.0)
        noc_ratio = mesh.components["ru"] / xbar.components["ru"]
        assert noc_ratio == pytest.approx(0.535, abs=0.01)

    def test_hbm_power_independent_of_pes(self):
        small = accelerator_power_watts(128, "mesh")
        large = accelerator_power_watts(1024, "mesh")
        assert small.components["hbm"] == large.components["hbm"]

    def test_onchip_power_scales_with_pes(self):
        small = accelerator_power_watts(128, "mesh")
        large = accelerator_power_watts(512, "mesh")
        assert large.components["gu"] == pytest.approx(
            4 * small.components["gu"]
        )

    def test_gpu_power(self):
        # Measured (nvidia-smi) V100 draw under graph workloads, not TDP.
        assert gpu_power_watts() == 160.0

    def test_energy(self):
        assert energy_joules(10.0, 2.0) == 20.0
        with pytest.raises(ConfigurationError):
            energy_joules(-1.0, 1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            accelerator_power_watts(0, "mesh")
        with pytest.raises(ConfigurationError):
            accelerator_power_watts(128, "mesh", frequency_mhz=0)


class TestAreaModelFigure16:
    @pytest.mark.parametrize(
        "pes,kind,lut,reg,bram",
        [
            (128, "crossbar", 22.8, 11.6, 74.7),
            (128, "mesh", 10.9, 6.4, 70.8),
            (512, "crossbar", 85.1, 43.8, 76.1),
            (512, "mesh", 39.2, 22.9, 73.2),
        ],
    )
    def test_figure16_rows(self, pes, kind, lut, reg, bram):
        util = resource_utilization(pes, kind)
        assert util.lut_pct == pytest.approx(lut, rel=0.05)
        assert util.reg_pct == pytest.approx(reg, rel=0.05)
        assert util.bram_pct == pytest.approx(bram, rel=0.05)

    def test_scalagraph_half_the_luts(self):
        """Section V-B: at equal PE count ScalaGraph needs ~2.1x fewer
        LUTs and ~1.8x fewer REGs than GraphDynS."""
        gd = resource_utilization(128, "crossbar")
        sg = resource_utilization(128, "mesh")
        assert gd.lut_pct / sg.lut_pct == pytest.approx(2.1, rel=0.05)
        assert gd.reg_pct / sg.reg_pct == pytest.approx(1.8, rel=0.05)

    def test_mesh_lut_exhaustion_beyond_1024(self):
        """Section V-E: beyond 1,024 PEs the LUTs run out."""
        assert max(resource_utilization(1024, "mesh").as_row()) <= 100.0
        assert max(resource_utilization(2048, "mesh").as_row()) > 100.0

    def test_crossbar_quadratic_term(self):
        """Crossbar LUTs grow superlinearly in radix."""
        a = resource_utilization(64, "crossbar", crossbar_radix=64)
        b = resource_utilization(128, "crossbar", crossbar_radix=128)
        assert b.lut_pct > 2 * a.lut_pct

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            resource_utilization(0, "mesh")
        with pytest.raises(ConfigurationError):
            resource_utilization(128, "crossbar", crossbar_radix=0)
