"""Workload-to-PE mappings (Section IV-A, Figure 10, Table II).

Three mechanisms map graph workloads onto the PE matrix:

* **Source-oriented** (`SOM`, prior accelerators): all edges of a source
  vertex go to the PE owning it; updates route both dimensions of the
  mesh — O(M * sqrt(K)) Scatter traffic.
* **Destination-oriented** (`DOM`, HMC-based accelerators): edges live
  with their destination; zero Scatter traffic but O(N * K) Apply-phase
  replica maintenance and O(N * K) extra storage.
* **Row-oriented** (`ROM`, the paper's contribution): an edge is placed
  in the row of its source's home PE and the column of its destination's
  home PE, so updates route only along columns — half of SOM's traffic
  with none of DOM's replicas.
"""

from repro.mapping.base import Mapping, MappingTraffic, vertex_home
from repro.mapping.destination_oriented import DestinationOrientedMapping
from repro.mapping.row_oriented import RowOrientedMapping
from repro.mapping.row_oriented_torus import RowOrientedTorusMapping
from repro.mapping.source_oriented import SourceOrientedMapping

#: Every mapping by name, in the order configuration errors list them.
MAPPINGS = {
    "rom": RowOrientedMapping,
    "som": SourceOrientedMapping,
    "dom": DestinationOrientedMapping,
    "rom-torus": RowOrientedTorusMapping,
}


def make_mapping(name: str, topology) -> Mapping:
    """Instantiate a mapping by its name (rom/som/dom/rom-torus)."""
    key = name.lower()
    if key not in MAPPINGS:
        raise KeyError(f"unknown mapping {name!r}; known: {sorted(MAPPINGS)}")
    return MAPPINGS[key](topology)


__all__ = [
    "Mapping",
    "MappingTraffic",
    "vertex_home",
    "SourceOrientedMapping",
    "DestinationOrientedMapping",
    "RowOrientedMapping",
    "RowOrientedTorusMapping",
    "MAPPINGS",
    "make_mapping",
]
