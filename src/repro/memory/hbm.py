"""High-bandwidth memory (HBM2) bandwidth model.

The Alveo U280 exposes two 4 GB HBM2 stacks totalling 460 GB/s across 32
pseudo channels (Sections III-A, V-A).  ScalaGraph's prefetchers stream
edges and the active-vertex list sequentially, so the model's one job is
to convert byte volumes into cycles at the accelerator clock, honouring
the 64-byte access granularity.  Streams are assumed to interleave
perfectly over the pseudo channels, so only the aggregate bandwidth
matters; the first-access latency of a phase is charged by
``TimingParams.phase_overhead_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

GB = 1_000_000_000


@dataclass(frozen=True)
class HBMConfig:
    """Parameters of the off-chip memory system.

    Attributes:
        num_stacks: HBM stacks on the card (U280: 2).
        pseudo_channels_per_stack: pseudo channels per stack (16 each).
        total_bandwidth_gbs: aggregate bandwidth in GB/s (U280: 460).
        access_granularity: bytes moved per access (64-byte lines).
        capacity_bytes_per_stack: stack capacity (4 GB each).
    """

    num_stacks: int = 2
    pseudo_channels_per_stack: int = 16
    total_bandwidth_gbs: float = 460.0
    access_granularity: int = 64
    capacity_bytes_per_stack: int = 4 * GB

    def __post_init__(self) -> None:
        if self.num_stacks <= 0 or self.pseudo_channels_per_stack <= 0:
            raise ConfigurationError("HBM channel counts must be positive")
        if self.total_bandwidth_gbs <= 0:
            raise ConfigurationError("HBM bandwidth must be positive")
        if self.access_granularity <= 0:
            raise ConfigurationError("access granularity must be positive")

    @property
    def num_pseudo_channels(self) -> int:
        return self.num_stacks * self.pseudo_channels_per_stack

    @property
    def total_capacity_bytes(self) -> int:
        """Aggregate card capacity; the accelerator's capacity guard
        rejects graphs whose off-chip footprint exceeds it."""
        return self.num_stacks * self.capacity_bytes_per_stack

    @classmethod
    def unbounded(cls) -> "HBMConfig":
        """A config with effectively infinite bandwidth and capacity —
        used by the Figure 21 'sufficient off-chip bandwidth' scaling
        study, which sizes meshes far past one physical card."""
        return cls(total_bandwidth_gbs=1e9, capacity_bytes_per_stack=10**18)

    def with_disabled_channels(self, disabled: int) -> "HBMConfig":
        """A copy with ``disabled`` pseudo channels offline.

        Channel counts stay nominal (addressing is unchanged); only the
        aggregate bandwidth is derated proportionally — the
        fault-injection model of partial-resource HBM operation (see
        :mod:`repro.faults`).  Disabling every channel is rejected.
        """
        if disabled < 0:
            raise ConfigurationError("disabled channel count must be >= 0")
        if disabled >= self.num_pseudo_channels:
            raise ConfigurationError(
                f"cannot disable {disabled} of "
                f"{self.num_pseudo_channels} HBM pseudo channels"
            )
        if not disabled:
            return self
        fraction = (
            self.num_pseudo_channels - disabled
        ) / self.num_pseudo_channels
        return replace(
            self, total_bandwidth_gbs=self.total_bandwidth_gbs * fraction
        )


class HBMModel:
    """Converts traffic volumes into accelerator cycles."""

    def __init__(self, config: HBMConfig, frequency_hz: float) -> None:
        if frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        self.config = config
        self.frequency_hz = frequency_hz

    @property
    def bytes_per_cycle(self) -> float:
        """Aggregate sequential bandwidth per accelerator cycle."""
        return self.config.total_bandwidth_gbs * GB / self.frequency_hz

    def stream_cycles(self, num_bytes: float) -> float:
        """Cycles to stream ``num_bytes`` sequentially.

        Sequential streams use full lines, so no granularity penalty
        beyond rounding the total up to whole lines.
        """
        if num_bytes <= 0:
            return 0.0
        gran = self.config.access_granularity
        lines = -(-num_bytes // gran)
        return lines * gran / self.bytes_per_cycle
