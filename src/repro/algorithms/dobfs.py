"""Direction-optimizing BFS (Beamer et al. [4], cited in Section I).

Classic top-down BFS scatters every frontier edge; when the frontier is
a large fraction of the graph, most of those edges point at
already-visited vertices.  Direction-optimizing BFS switches to a
*bottom-up* (pull) phase: every unvisited vertex scans its in-edges and
adopts a depth as soon as it finds a visited parent, then switches back
when the frontier shrinks.  The heuristic follows Beamer's alpha/beta
rule.

This extension lives outside the push-only reference engine: it produces
both the gold depths and an explicit per-iteration workload trace (the
edges actually examined, with their processing direction) that feeds
:meth:`repro.core.ScalaGraph.run_trace`, since pull iterations process
the *transpose* graph's edges of the unvisited set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.algorithms.reference import gather_frontier_edges
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class DirectionStep:
    """One BFS iteration's examined edges and metadata.

    Attributes:
        mode: ``'push'`` (top-down) or ``'pull'`` (bottom-up).
        active_vertices: frontier (push) or unvisited set (pull).
        edge_src / edge_dst: edges examined, oriented as updates flow
            (pull edges are transposed so dst is the vertex written).
        num_updates: vertices discovered this iteration.
    """

    mode: str
    active_vertices: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    num_updates: int

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.size)


@dataclass
class DirectionOptimizingResult:
    """Depths plus the direction-annotated workload trace."""

    depths: np.ndarray
    steps: List[DirectionStep] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.steps)

    @property
    def total_edges_examined(self) -> int:
        return sum(step.num_edges for step in self.steps)

    @property
    def pull_iterations(self) -> int:
        return sum(1 for step in self.steps if step.mode == "pull")


def run_direction_optimizing_bfs(
    graph: CSRGraph,
    root: int = 0,
    alpha: float = 15.0,
    beta: float = 18.0,
    transpose: Optional[CSRGraph] = None,
) -> DirectionOptimizingResult:
    """Run direction-optimizing BFS.

    Args:
        graph: the input graph (push direction).
        root: BFS root.
        alpha: switch push -> pull when the frontier's out-edges exceed
            ``remaining_unvisited_edges / alpha`` (Beamer's heuristic).
        beta: switch pull -> push when the frontier shrinks below
            ``num_vertices / beta``.
        transpose: pre-computed ``graph.reversed()`` (recomputed if None).

    Returns:
        Depths identical to plain BFS, plus the per-iteration trace of
        edges actually examined (pull phases examine far fewer).
    """
    if not 0 <= root < graph.num_vertices:
        raise ConfigurationError(f"root {root} out of range")
    if alpha <= 0 or beta <= 0:
        raise ConfigurationError("alpha/beta must be positive")
    rev = transpose if transpose is not None else graph.reversed()

    depths = np.full(graph.num_vertices, np.inf)
    depths[root] = 0.0
    frontier = np.array([root], dtype=np.int64)
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[root] = True
    result = DirectionOptimizingResult(depths=depths)

    depth = 0
    mode = "push"
    unexplored_edges = int(graph.num_edges)
    prev_frontier_size = 0
    while frontier.size:
        frontier_edges = int(graph.out_degrees[frontier].sum())
        growing = frontier.size > prev_frontier_size
        if (
            mode == "push"
            and growing
            and frontier_edges > unexplored_edges / alpha
        ):
            mode = "pull"
        elif mode == "pull" and frontier.size < graph.num_vertices / beta:
            mode = "push"
        prev_frontier_size = int(frontier.size)

        if mode == "push":
            src, dst, _ = gather_frontier_edges(graph, frontier)
            discovered_mask = np.zeros(graph.num_vertices, dtype=bool)
            fresh = ~visited[dst]
            discovered_mask[dst[fresh]] = True
            discovered = np.flatnonzero(discovered_mask)
            step = DirectionStep(
                mode="push",
                active_vertices=frontier,
                edge_src=src,
                edge_dst=dst,
                num_updates=int(discovered.size),
            )
            unexplored_edges -= frontier_edges
        else:
            # Bottom-up: every unvisited vertex scans its in-edges until
            # it meets a visited parent (early exit).
            unvisited = np.flatnonzero(~visited)
            examined_src: List[int] = []
            examined_dst: List[int] = []
            discovered_list: List[int] = []
            for v in unvisited:
                parents = rev.neighbors(v)
                for u in parents:
                    examined_src.append(int(u))
                    examined_dst.append(int(v))
                    if visited[u]:
                        discovered_list.append(int(v))
                        break
            discovered = np.array(sorted(discovered_list), dtype=np.int64)
            step = DirectionStep(
                mode="pull",
                active_vertices=unvisited,
                edge_src=np.array(examined_src, dtype=np.int64),
                edge_dst=np.array(examined_dst, dtype=np.int64),
                num_updates=int(discovered.size),
            )

        depths[discovered] = depth + 1
        visited[discovered] = True
        result.steps.append(step)
        frontier = discovered
        depth += 1

    result.depths = depths
    return result


def as_workload(result: DirectionOptimizingResult):
    """Convert a DOBFS trace into :class:`WorkloadIteration` items for
    :meth:`repro.core.ScalaGraph.run_trace`."""
    from repro.core.replay import WorkloadIteration

    return [
        WorkloadIteration(
            active_vertices=step.active_vertices,
            edge_src=step.edge_src,
            edge_dst=step.edge_dst,
            num_updates=step.num_updates,
        )
        for step in result.steps
    ]
