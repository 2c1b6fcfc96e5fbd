"""Graph substrate: CSR storage, generators, datasets, partitioning, I/O.

ScalaGraph stores graphs in compressed sparse row (CSR) format
(Section III-B of the paper).  This subpackage provides the CSR container
(:class:`~repro.graph.csr.CSRGraph`), synthetic generators used as
stand-ins for the paper's datasets, the Graphicionado-style interval
partitioner used when vertex properties exceed on-chip capacity, and
graph transforms and statistics.
"""

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    path_graph,
    power_law_graph,
    rmat_graph,
    star_graph,
)
from repro.graph.datasets import (
    DATASETS,
    DatasetSpec,
    load_dataset,
    stable_seed,
)
from repro.graph.io import (
    load_csr,
    load_edge_list,
    load_matrix_market,
    save_csr,
    save_edge_list,
)
from repro.graph.partition import Partition, slice_intervals
from repro.graph.stats import DegreeStats, degree_histogram, degree_statistics
from repro.graph.transforms import (
    apply_permutation,
    largest_out_component_root,
    relabel_by_degree,
    remove_duplicate_edges,
    remove_self_loops,
    symmetrize,
)

__all__ = [
    "CSRGraph",
    "erdos_renyi",
    "grid_graph",
    "path_graph",
    "power_law_graph",
    "rmat_graph",
    "star_graph",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "stable_seed",
    "load_csr",
    "load_edge_list",
    "load_matrix_market",
    "save_csr",
    "save_edge_list",
    "Partition",
    "slice_intervals",
    "apply_permutation",
    "largest_out_component_root",
    "relabel_by_degree",
    "remove_duplicate_edges",
    "remove_self_loops",
    "symmetrize",
    "DegreeStats",
    "degree_histogram",
    "degree_statistics",
]
