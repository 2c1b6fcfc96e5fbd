"""Benes network tests: construction and hardware complexity."""

import pytest

from repro.errors import ConfigurationError
from repro.noc.benes import BenesNetwork


class TestConstruction:
    def test_depth(self):
        assert BenesNetwork(2).depth == 1
        assert BenesNetwork(8).depth == 5
        assert BenesNetwork(64).depth == 11

    def test_num_switches_is_n_log_n(self):
        net = BenesNetwork(16)
        assert net.num_switches == net.depth * 8
        # O(N log N): 16 ports -> 56 switches vs crossbar's 256 points.
        assert net.num_switches == 56

    def test_rejects_non_power_of_two(self):
        for bad in (0, 1, 3, 6, 100):
            with pytest.raises(ConfigurationError):
                BenesNetwork(bad)

