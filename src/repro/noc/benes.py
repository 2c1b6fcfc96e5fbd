"""Benes rearrangeable permutation network.

The paper's Figure 8 compares the mesh against a Benes network as the
representative O(N log N) interconnect.  A Benes network on ``N = 2^k``
ports has ``2k - 1`` stages of ``N/2`` two-by-two switches.  This module
gives its hardware complexity (:meth:`BenesNetwork.num_switches`,
:meth:`BenesNetwork.depth`), which the Figure 8 bench and
``examples/noc_study.py`` print next to the frequency curves of
:mod:`repro.models.frequency`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class BenesNetwork:
    """A Benes network on ``num_ports = 2^k`` ports."""

    def __init__(self, num_ports: int) -> None:
        if num_ports < 2 or num_ports & (num_ports - 1):
            raise ConfigurationError(
                f"Benes needs a power-of-two port count >= 2, got {num_ports}"
            )
        self.num_ports = num_ports

    @property
    def depth(self) -> int:
        """Number of switch stages: ``2 * log2(N) - 1``."""
        return 2 * int(np.log2(self.num_ports)) - 1

    @property
    def num_switches(self) -> int:
        """Total 2x2 switches: ``depth * N / 2`` — the O(N log N) cost."""
        return self.depth * self.num_ports // 2
