"""Synthetic graph generators.

The paper evaluates on SNAP social graphs (Pokec, LiveJournal, Orkut,
Twitter) and a Graph500 RMAT24 graph (Table III).  Those inputs are not
shipped here, so :mod:`repro.graph.datasets` instantiates parameter-matched
stand-ins from the generators in this module.  RMAT reproduces the
power-law degree skew that drives the paper's load-balance results; the
configuration-model generator gives direct control over the degree
exponent; the deterministic topologies (grid/path/star) serve tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

_INDEX_DTYPE = np.int64


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    name: Optional[str] = None,
    dedup: bool = False,
) -> CSRGraph:
    """Generate a directed R-MAT graph (Graph500-style).

    Args:
        scale: ``num_vertices = 2 ** scale``.
        edge_factor: edges per vertex (Graph500 default 16).
        a, b, c: recursive quadrant probabilities; ``d = 1 - a - b - c``.
        seed: RNG seed (generation is deterministic given the seed).
        name: label; defaults to ``rmat<scale>``.
        dedup: drop duplicate edges (reduces the edge count below
            ``edge_factor * num_vertices``).
    """
    if scale < 0:
        raise GraphFormatError("scale must be >= 0")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphFormatError("RMAT probabilities must be non-negative")
    num_vertices = 1 << scale
    num_edges = edge_factor * num_vertices
    rng = np.random.default_rng(seed)

    # Vertex IDs fit 32 bits below scale 31.
    index = np.int32 if scale < 31 else np.int64
    src = np.zeros(num_edges, dtype=index)
    dst = np.zeros(num_edges, dtype=index)
    # Each bit of the vertex IDs is chosen independently per RMAT recursion
    # level.  P(src bit = 1) = c + d; P(dst bit = 1 | src bit) follows the
    # conditional quadrant probabilities.  Each level draws the source
    # bits' numbers, then the destination bits', into one reused buffer.
    p_src_hi = c + d
    p_dst_hi_given_hi = d / (c + d) if (c + d) > 0 else 0.0
    p_dst_hi_given_lo = b / (a + b) if (a + b) > 0 else 0.0
    draw = np.empty(num_edges, dtype=np.float64)
    src_hi = np.empty(num_edges, dtype=bool)
    dst_hi = np.empty(num_edges, dtype=bool)
    for _ in range(scale):
        np.less(rng.random(out=draw), p_src_hi, out=src_hi)
        rng.random(out=draw)
        np.less(draw, p_dst_hi_given_lo, out=dst_hi)
        np.less(draw, p_dst_hi_given_hi, out=dst_hi, where=src_hi)
        src <<= 1
        src |= src_hi
        dst <<= 1
        dst |= dst_hi
    del draw, src_hi, dst_hi

    # Permute vertex IDs so that high-degree vertices are not clustered at
    # low IDs (Graph500 does the same).
    # One array at a time, so one old id array lives beside the new ones.
    perm = rng.permutation(num_vertices).astype(index)
    src = perm[src]
    dst = perm[dst]
    return CSRGraph.from_endpoints(
        num_vertices, src, dst, name=name or f"rmat{scale}", dedup=dedup
    )


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    name: Optional[str] = None,
    allow_self_loops: bool = True,
) -> CSRGraph:
    """Uniform random directed multigraph with ``num_edges`` edges."""
    if num_vertices <= 0 and num_edges > 0:
        raise GraphFormatError("cannot place edges in an empty graph")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=_INDEX_DTYPE)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=_INDEX_DTYPE)
    if not allow_self_loops and num_vertices > 1:
        loops = src == dst
        dst[loops] = (dst[loops] + 1) % num_vertices
    return CSRGraph.from_endpoints(
        num_vertices, src, dst, name=name or f"er{num_vertices}"
    )


def power_law_graph(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """Directed configuration-model graph with power-law out/in degrees.

    Endpoint IDs are drawn from a Zipf-like distribution with the given
    exponent, so both out- and in-degree follow a power law.  Lower
    exponents yield heavier skew (Twitter-like); higher exponents approach
    uniform (Orkut-like).
    """
    if exponent <= 0:
        raise GraphFormatError("exponent must be positive")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    probs = ranks ** (-exponent)
    probs /= probs.sum()
    src = rng.choice(num_vertices, size=num_edges, p=probs).astype(_INDEX_DTYPE)
    dst = rng.choice(num_vertices, size=num_edges, p=probs).astype(_INDEX_DTYPE)
    # Decorrelate IDs so popularity is not a function of vertex index.
    perm = rng.permutation(num_vertices).astype(_INDEX_DTYPE)
    return CSRGraph.from_endpoints(
        num_vertices, perm[src], perm[dst], name=name or f"plaw{num_vertices}"
    )


def grid_graph(rows: int, cols: int, name: Optional[str] = None) -> CSRGraph:
    """4-neighbour grid with edges in both directions (deterministic)."""
    if rows <= 0 or cols <= 0:
        raise GraphFormatError("grid dimensions must be positive")
    vid = np.arange(rows * cols, dtype=_INDEX_DTYPE).reshape(rows, cols)
    pairs = []
    right = np.stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()], axis=1)
    down = np.stack([vid[:-1, :].ravel(), vid[1:, :].ravel()], axis=1)
    for fwd in (right, down):
        pairs.append(fwd)
        pairs.append(fwd[:, ::-1])
    edges = np.concatenate(pairs, axis=0) if pairs else np.zeros((0, 2))
    return CSRGraph.from_edges(
        rows * cols, edges, name=name or f"grid{rows}x{cols}"
    )


def path_graph(num_vertices: int, name: Optional[str] = None) -> CSRGraph:
    """Directed path 0 -> 1 -> ... -> n-1 (deterministic)."""
    if num_vertices < 0:
        raise GraphFormatError("num_vertices must be >= 0")
    if num_vertices < 2:
        return CSRGraph.from_edges(num_vertices, [], name=name or "path")
    src = np.arange(num_vertices - 1, dtype=_INDEX_DTYPE)
    pairs = np.stack([src, src + 1], axis=1)
    return CSRGraph.from_edges(
        num_vertices, pairs, name=name or f"path{num_vertices}"
    )


def star_graph(
    num_leaves: int, outward: bool = True, name: Optional[str] = None
) -> CSRGraph:
    """Star graph: hub vertex 0 plus ``num_leaves`` leaves.

    The extreme power-law case; used to exercise load-imbalance handling.
    """
    if num_leaves < 0:
        raise GraphFormatError("num_leaves must be >= 0")
    leaves = np.arange(1, num_leaves + 1, dtype=_INDEX_DTYPE)
    hub = np.zeros(num_leaves, dtype=_INDEX_DTYPE)
    pairs = (
        np.stack([hub, leaves], axis=1)
        if outward
        else np.stack([leaves, hub], axis=1)
    )
    return CSRGraph.from_edges(
        num_leaves + 1, pairs, name=name or f"star{num_leaves}"
    )
