"""Report analysis: bottleneck breakdowns and ASCII charts.

Turns a :class:`~repro.core.stats.SimulationReport` into the diagnostics
an architect actually reads: which bound dominated each iteration, where
the cycles went, and quick terminal bar charts for sweeps.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Mapping

from repro.core.stats import SimulationReport


def bottleneck_histogram(report: SimulationReport) -> Dict[str, int]:
    """How many iterations each Scatter bound dominated."""
    counts = Counter(it.scatter_bottleneck for it in report.iterations)
    return dict(counts)


def phase_shares(report: SimulationReport) -> Dict[str, float]:
    """Fraction of total cycles spent per phase (overlap credited to
    the pipeline)."""
    scatter = sum(it.scatter_cycles for it in report.iterations)
    apply = sum(it.apply_cycles for it in report.iterations)
    overlap = sum(it.overlap_cycles for it in report.iterations)
    total = max(report.total_cycles, 1e-12)
    return {
        "scatter": scatter / total,
        "apply": apply / total,
        "hidden_by_pipelining": overlap / total,
    }


def describe(report: SimulationReport) -> str:
    """A multi-line diagnostic block for one run."""
    lines = [report.summary()]
    histogram = bottleneck_histogram(report)
    if histogram:
        total = sum(histogram.values())
        parts = ", ".join(
            f"{name} {count}/{total}"
            for name, count in sorted(
                histogram.items(), key=lambda kv: -kv[1]
            )
        )
        lines.append(f"  scatter bottlenecks: {parts}")
    shares = phase_shares(report)
    lines.append(
        "  cycles: scatter {scatter:.0%}, apply {apply:.0%}, "
        "hidden by pipelining {hidden_by_pipelining:.0%}".format(**shares)
    )
    if report.total_noc_messages:
        lines.append(
            f"  NoC: {report.total_noc_messages:,} messages, "
            f"{report.total_noc_hops:,} hops, "
            f"{report.total_coalesced:,} coalesced "
            f"({report.total_coalesced / max(report.total_edges_traversed, 1):.0%} "
            "of updates)"
        )
    lines.append(
        f"  off-chip: {report.total_offchip_bytes / 1e6:.2f} MB "
        f"({report.total_offchip_bytes / max(report.total_edges_traversed, 1):.1f} "
        "B/edge)"
    )
    return "\n".join(lines)


def bar_chart(
    values: Mapping[object, float],
    width: int = 40,
    label_fmt: str = "{}",
    value_fmt: str = "{:.2f}",
) -> str:
    """A horizontal ASCII bar chart (terminal figure for sweeps)."""
    if not values:
        return "(empty)"
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    labels = [label_fmt.format(k) for k in values]
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values.values()):
        bar = "#" * max(int(round(width * value / peak)), 0)
        lines.append(
            f"{label.rjust(label_width)} | {bar} {value_fmt.format(value)}"
        )
    return "\n".join(lines)
