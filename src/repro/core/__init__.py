"""ScalaGraph core: the paper's accelerator (Sections III and IV).

The top-level entry point is :class:`~repro.core.accelerator.ScalaGraph`:

>>> from repro.core import ScalaGraph, ScalaGraphConfig
>>> from repro.algorithms import PageRank
>>> from repro.graph import load_dataset
>>> accel = ScalaGraph(ScalaGraphConfig(pe_cols=16))   # doctest: +SKIP
>>> report = accel.run(PageRank(), load_dataset("PK")) # doctest: +SKIP
>>> report.gteps                                       # doctest: +SKIP

``ScalaGraph.run`` first executes the program on the functional reference
engine (gold results) and then replays each iteration through the
cycle-approximate timing model: degree-aware dispatch (Section IV-C),
row-oriented mapping with column-link contention (Section IV-A), update
aggregation (Section IV-B), SPD serialisation, HBM bandwidth, and
inter-phase pipelining (Section IV-D).  The cycle-accurate tile
simulator (:mod:`repro.core.cycle_sim`, with its vectorized twin
:mod:`repro.core.fastsim`) routes every update through the real
aggregation pipelines, mesh and scratchpads and cross-validates both the
architecture's results and the timing model on small tiles.
"""

from repro.core.config import ScalaGraphConfig, TimingParams
from repro.core.accelerator import ScalaGraph
from repro.core.profiling import NULL_PROFILER, NullProfiler, Profiler
from repro.core.stats import IterationStats, PhaseCycles, SimulationReport
from repro.core.cycle_sim import CycleAccurateScalaGraph

__all__ = [
    "ScalaGraph",
    "ScalaGraphConfig",
    "TimingParams",
    "IterationStats",
    "PhaseCycles",
    "SimulationReport",
    "CycleAccurateScalaGraph",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
]
