"""Model validation: analytic timing model vs cycle-accurate simulation.

Not a paper figure — this bench quantifies the fidelity of the
cycle-approximate model that generates Figures 14-21, by replaying the
same workloads through the cycle-by-cycle tile simulator
(:class:`repro.core.CycleAccurateScalaGraph`) on small graphs and
comparing Scatter-phase cycle counts (the analytic model's fixed
per-phase overhead excluded, since the cycle sim models a drained
steady state).

Two regimes are validated:

* the original small-graph sweep on a 4x4 tile (where the analytic
  model was calibrated — ratios near 1.0), and
* one paper-scale point: a 32x32 mesh (1024 PEs) on a million-edge
  R-MAT graph through the vectorized cycle engine.  At this scale the
  cycle simulator exposes the aggregation-emission serialisation tail
  that the analytic Scatter model does not carry, so the deviation is
  large (~5x) — the artifact records it as a model-fidelity datum, not
  a target.  Skip with ``REPRO_VALIDATION_PAPER_SCALE=`` (empty) when
  the bench host cannot afford the ~20 s run.
"""

import os

from conftest import emit, emit_json

from repro.algorithms import BFS, ConnectedComponents, PageRank, run_reference
from repro.core import (
    CycleAccurateScalaGraph,
    Profiler,
    ScalaGraph,
    ScalaGraphConfig,
)
from repro.experiments import format_table, geometric_mean
from repro.graph.generators import rmat_graph
from repro.validate import scatter_cycles_vs_model

CONFIG = ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4)
WORKLOADS = [
    ("rmat7-pagerank", rmat_graph(7, edge_factor=8, seed=3), PageRank(max_iters=3)),
    ("rmat8-pagerank", rmat_graph(8, edge_factor=6, seed=4), PageRank(max_iters=3)),
    ("rmat7-bfs", rmat_graph(7, edge_factor=8, seed=5), BFS()),
    ("rmat7-cc", rmat_graph(7, edge_factor=8, seed=6), ConnectedComponents()),
]

PAPER_SCALE = os.environ.get("REPRO_VALIDATION_PAPER_SCALE", "1").strip()


def run_paper_scale_validation():
    """32x32 mesh x million-edge R-MAT through the vectorized cycle
    engine, with the same scatter-cycle comparison as the 4x4 sweep.
    The graph is built here, not at import, so skipping the point skips
    its cost too."""
    graph = rmat_graph(16, edge_factor=16, seed=1)
    config = ScalaGraphConfig(
        num_tiles=1,
        pe_rows=32,
        pe_cols=32,
        aggregation_registers=64,
        mapping="rom",
        cycle_engine="vectorized",
    )
    program = PageRank(max_iters=2)
    reference = run_reference(program, graph)
    cycle = CycleAccurateScalaGraph(config).run(program, graph)
    analytic = ScalaGraph(config).run(program, graph, reference=reference)
    measured, modelled = scatter_cycles_vs_model(
        config, cycle.stats, analytic
    )
    return {
        "label": "rmat16-pagerank-32x32",
        "mesh": "32x32",
        "edges": int(graph.num_edges),
        "vertices": int(graph.num_vertices),
        "total_cycles": int(cycle.stats.total_cycles),
        "cycle_accurate_scatter_cycles": int(measured),
        "analytic_scatter_cycles": float(modelled),
        "ratio": measured / modelled,
    }


def run_validation():
    rows = []
    ratios = []
    profile = Profiler()
    for label, graph, program in WORKLOADS:
        reference = run_reference(program, graph)
        cycle = CycleAccurateScalaGraph(CONFIG, profiler=profile).run(
            program, graph
        )
        analytic = ScalaGraph(CONFIG, profiler=profile).run(
            program, graph, reference=reference
        )
        measured, modelled = scatter_cycles_vs_model(
            CONFIG, cycle.stats, analytic
        )
        ratio = measured / modelled
        ratios.append(ratio)
        rows.append(
            [
                label,
                graph.num_edges,
                measured,
                modelled,
                ratio,
            ]
        )
    return rows, ratios, profile


def test_validation_cycle_accurate_vs_analytic(benchmark):
    rows, ratios, profile = benchmark.pedantic(
        run_validation, rounds=1, iterations=1
    )
    text = format_table(
        [
            "Workload",
            "edges",
            "cycle-accurate scatter cyc",
            "analytic (minus overhead)",
            "ratio",
        ],
        rows,
        title="Timing-model validation on a 4x4 tile",
    )
    text += (
        f"\n\nGeomean cycle-accurate / analytic ratio: "
        f"{geometric_mean(ratios):.2f} (1.0 = perfect)."
    )
    paper_scale = None
    if PAPER_SCALE:
        paper_scale = run_paper_scale_validation()
        text += (
            f"\n\nPaper-scale point ({paper_scale['label']}, "
            f"{paper_scale['edges']:,} edges): cycle-accurate "
            f"{paper_scale['cycle_accurate_scatter_cycles']:,} vs "
            f"analytic {paper_scale['analytic_scatter_cycles']:,.0f} "
            f"scatter cycles — deviation {paper_scale['ratio']:.2f}x "
            f"(emission-tail serialisation the analytic model omits)."
        )
    emit("validation_cycle_sim", text)
    emit_json(
        "validation_cycle_sim",
        {
            "schema": "repro-validation/2",
            "workloads": [
                {
                    "label": label,
                    "edges": edges,
                    "cycle_accurate_scatter_cycles": measured,
                    "analytic_scatter_cycles": modelled,
                    "ratio": ratio,
                }
                for label, edges, measured, modelled, ratio in rows
            ],
            "geomean_ratio": geometric_mean(ratios),
            "paper_scale": paper_scale,
            "profile": profile.to_dict(),
        },
    )

    for ratio in ratios:
        assert 0.4 < ratio < 2.5
    assert 0.6 < geometric_mean(ratios) < 1.7
    if paper_scale is not None:
        # Sanity band only: the deviation is a recorded datum.  The
        # cycle count must be real (the run completed) and the ratio
        # finite and >1 (the analytic model is optimistic at scale).
        assert paper_scale["edges"] >= 1_000_000
        assert 1.0 < paper_scale["ratio"] < 20.0
