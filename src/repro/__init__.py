"""ScalaGraph (HPCA 2022) reproduction library.

A from-scratch Python implementation of *ScalaGraph: A Scalable
Accelerator for Massively Parallel Graph Processing* (Yao et al., HPCA
2022) and every substrate it depends on: CSR graphs and generators, the
vertex-centric programming model, cycle-level mesh NoC simulators, the
Figure 11 aggregation pipeline, HBM and scratchpad models, the three
workload mappings, FPGA frequency/area/energy models, and the
GraphDynS/AccuGraph/Gunrock baselines.  The analytic :class:`ScalaGraph`
model produces every figure; :class:`CycleAccurateScalaGraph` validates
it tile by tile.

Quickstart::

    from repro import ScalaGraph, ScalaGraphConfig, PageRank, load_dataset

    graph = load_dataset("PK")
    report = ScalaGraph(ScalaGraphConfig()).run(PageRank(), graph)
    print(report.summary())
"""

from repro.algorithms import (
    BFS,
    SSSP,
    ConnectedComponents,
    PageRank,
    SpMV,
    VertexProgram,
    WidestPath,
    make_algorithm,
    run_direction_optimizing_bfs,
    run_reference,
)
from repro.baselines import AccuGraph, GraphDynS, Gunrock
from repro.core import (
    CycleAccurateScalaGraph,
    ScalaGraph,
    ScalaGraphConfig,
    SimulationReport,
    TimingParams,
)
from repro.validate import validate_report, validate_timing_envelope
from repro.errors import (
    CapacityError,
    ConfigurationError,
    GraphFormatError,
    ReproError,
    SimulationError,
    SynthesisError,
)
from repro.graph import CSRGraph, load_dataset, rmat_graph

__version__ = "1.0.0"

__all__ = [
    "BFS",
    "SSSP",
    "ConnectedComponents",
    "PageRank",
    "VertexProgram",
    "make_algorithm",
    "run_reference",
    "AccuGraph",
    "GraphDynS",
    "Gunrock",
    "ScalaGraph",
    "ScalaGraphConfig",
    "SimulationReport",
    "TimingParams",
    "CapacityError",
    "ConfigurationError",
    "GraphFormatError",
    "ReproError",
    "SimulationError",
    "SynthesisError",
    "CSRGraph",
    "load_dataset",
    "rmat_graph",
    "SpMV",
    "WidestPath",
    "run_direction_optimizing_bfs",
    "CycleAccurateScalaGraph",
    "validate_report",
    "validate_timing_envelope",
    "__version__",
]
