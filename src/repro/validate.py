"""Validation utilities: check results and cross-check simulators.

Downstream users integrating new algorithms or hardware configurations
can call these to confirm (a) a report's functional results match an
independent reference execution, and (b) the analytic timing model stays
within its validated envelope of the cycle-accurate simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.base import VertexProgram
from repro.algorithms.reference import run_reference
from repro.core import CycleAccurateScalaGraph, ScalaGraph, ScalaGraphConfig
from repro.core.cycle_sim import CycleStats
from repro.core.stats import SimulationReport
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a validation check."""

    ok: bool
    detail: str


def validate_report(
    report: SimulationReport,
    program: VertexProgram,
    graph: CSRGraph,
    rtol: float = 1e-9,
    max_iterations: Optional[int] = None,
) -> ValidationResult:
    """Re-run the reference engine and compare against the report.

    Checks the functional properties (exactly for integer-lattice
    programs, within ``rtol`` for floating-point ones) and the basic
    accounting invariants.
    """
    if report.properties is None:
        return ValidationResult(False, "report carries no properties")
    reference = run_reference(program, graph, max_iterations)
    if reference.properties.shape != report.properties.shape:
        return ValidationResult(False, "property shapes differ")
    if not np.allclose(
        report.properties,
        reference.properties,
        rtol=rtol,
        atol=0.0,
        equal_nan=True,
    ):
        bad = int(
            np.count_nonzero(
                ~np.isclose(
                    report.properties,
                    reference.properties,
                    rtol=rtol,
                    equal_nan=True,
                )
            )
        )
        return ValidationResult(
            False, f"{bad} vertex properties differ from the reference"
        )
    if report.total_edges_traversed != reference.total_edges_traversed:
        return ValidationResult(
            False,
            "edge-traversal count differs "
            f"({report.total_edges_traversed} vs "
            f"{reference.total_edges_traversed})",
        )
    if report.total_cycles < 0:
        return ValidationResult(False, "negative cycle count")
    if not 0 <= report.pe_utilization <= 1:
        return ValidationResult(False, "PE utilisation out of [0, 1]")
    return ValidationResult(True, "report matches the reference execution")


def scatter_cycles_vs_model(
    config: ScalaGraphConfig, stats: CycleStats, report: SimulationReport
) -> Tuple[int, float]:
    """The cycle engine's Scatter cycles and the analytic model's, the
    pair every model-error figure compares.

    The analytic side drops its fixed per-phase overhead
    (``timing.phase_overhead_cycles``), since the cycle engine models a
    drained steady state, and floors each phase at 1 cycle.
    """
    overhead = config.timing.phase_overhead_cycles
    measured = sum(stats.scatter_cycles)
    modelled = sum(
        max(it.scatter_cycles - overhead, 1.0) for it in report.iterations
    )
    return measured, modelled


def validate_timing_envelope(
    program: VertexProgram,
    graph: CSRGraph,
    config=None,
    max_ratio: float = 2.5,
    max_iterations: Optional[int] = None,
) -> ValidationResult:
    """Cross-check the analytic timing model against the cycle-accurate
    simulator (:func:`scatter_cycles_vs_model`) on one configuration,
    by default a 4x4 tile."""
    config = config or ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4)
    cycle = CycleAccurateScalaGraph(config).run(
        program, graph, max_iterations=max_iterations
    )
    analytic = ScalaGraph(config).run(
        program, graph, max_iterations=max_iterations
    )
    measured, modelled = scatter_cycles_vs_model(
        config, cycle.stats, analytic
    )
    if modelled <= 0:
        return ValidationResult(False, "analytic model produced zero cycles")
    ratio = measured / modelled
    if not (1.0 / max_ratio) < ratio < max_ratio:
        return ValidationResult(
            False,
            f"cycle-accurate/analytic ratio {ratio:.2f} outside "
            f"[{1 / max_ratio:.2f}, {max_ratio:.2f}]",
        )
    return ValidationResult(
        True, f"timing models agree (ratio {ratio:.2f})"
    )
