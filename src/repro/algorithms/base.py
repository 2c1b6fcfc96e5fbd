"""The vertex-centric Process/Reduce/Apply interface (paper Figure 1).

A :class:`VertexProgram` supplies the three user-defined functions of the
paper's programming model, all vectorised over numpy arrays so that a whole
iteration's Scatter phase is one array expression:

* ``scatter_value`` — the *Process* function: per-edge value produced from
  the edge weight and the source vertex property.  It receives the whole
  property array and gathers ``props[edge_src]`` itself, so a program
  computes what depends only on the source once per vertex (PageRank's
  rank over out-degree) and gathers once per edge.
* ``reduce_ufunc`` — the *Reduce* function as a numpy ufunc (``np.minimum``
  for BFS/SSSP/CC, ``np.add`` for PageRank), applied into ``V_temp``.
* ``apply_values`` — the *Apply* function combining old properties and
  ``V_temp`` into new properties; vertices whose property changed form the
  next active set.

Programs also declare two scheduling-relevant traits the accelerator
consults: ``monotonic`` (whether inter-phase pipelining is safe,
Section IV-D) and ``all_active`` (PageRank-style full-frontier execution).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class ProgramContext:
    """Per-run constants handed to every program callback.

    Attributes:
        graph: the input graph.
        out_degrees: cached ``graph.out_degrees`` (PageRank's Process
            divides the source rank by its out-degree).
    """

    graph: CSRGraph
    out_degrees: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_degrees", self.graph.out_degrees)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


class VertexProgram(abc.ABC):
    """A graph algorithm in the vertex-centric model of Figure 1."""

    #: Human-readable algorithm name.
    name: str = "program"
    #: True when property updates are monotonic, making the inter-phase
    #: pipelining of Section IV-D safe (BFS, SSSP, CC yes; PageRank no).
    monotonic: bool = False
    #: True when every vertex is active in every iteration (PageRank).
    all_active: bool = False
    #: True when the program reads edge weights (SSSP).
    needs_weights: bool = False

    # ------------------------------------------------------------------
    # State initialisation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_properties(self, ctx: ProgramContext) -> np.ndarray:
        """The initial ``V_prop`` array (float64[num_vertices])."""

    @abc.abstractmethod
    def initial_active(self, ctx: ProgramContext) -> np.ndarray:
        """Vertex IDs active in the first iteration."""

    # ------------------------------------------------------------------
    # The three user-defined functions
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def reduce_ufunc(self) -> np.ufunc:
        """The Reduce operator as a numpy ufunc (must be commutative and
        associative; the accelerator's aggregation pipeline relies on
        this to pre-reduce in-flight updates, Section IV-B)."""

    @property
    @abc.abstractmethod
    def reduce_identity(self) -> float:
        """Identity element of :attr:`reduce_ufunc` used to reset V_temp."""

    @abc.abstractmethod
    def scatter_value(
        self,
        ctx: ProgramContext,
        edge_src: np.ndarray,
        edge_weight: np.ndarray,
        props: np.ndarray,
    ) -> np.ndarray:
        """The Process function, vectorised over one iteration's edges.

        ``props`` is the whole ``V_prop`` array (one value per vertex),
        ``edge_src`` the source of every edge (int64 or int32: the
        vectorized cycle engine narrows its sources) and ``edge_weight``
        its weight.  Gather ``props[edge_src]`` once and return one value
        per edge; work that depends only on the source is cheaper done on
        ``props`` before the gather.  Neither input may be written.
        """

    @abc.abstractmethod
    def apply_values(
        self,
        ctx: ProgramContext,
        props: np.ndarray,
        vtemp: np.ndarray,
    ) -> np.ndarray:
        """The Apply function: new property array for all vertices."""

    # ------------------------------------------------------------------
    # Convergence hooks
    # ------------------------------------------------------------------
    def is_updated(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Boolean mask of vertices whose property counts as changed.

        Figure 1 activates a vertex when ``ApplyRes != V_prop[v]``; floating
        point programs (PageRank) override this with a tolerance.
        """
        return new != old

    def max_iterations(self, ctx: ProgramContext) -> int:
        """Safety bound on iteration count (default: |V| + 1)."""
        return ctx.num_vertices + 1

    def validate(self, ctx: ProgramContext) -> None:
        """Raise if the program cannot run on this graph."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def scatter_values(
    program: VertexProgram,
    ctx: ProgramContext,
    edge_src: np.ndarray,
    edge_weight: np.ndarray,
    props: np.ndarray,
) -> np.ndarray:
    """``program``'s Process over one frontier's edges: every engine's
    one call of :meth:`VertexProgram.scatter_value`.

    Raises :class:`ConfigurationError` naming the program unless it
    returns one value per edge, which is what a program written to take
    the gathered ``props[edge_src]`` does not do when handed ``props``.
    """
    values = program.scatter_value(ctx, edge_src, edge_weight, props)
    if np.shape(values) != edge_src.shape:
        raise ConfigurationError(
            f"{type(program).__name__}.scatter_value returned "
            f"{np.shape(values)} values for {edge_src.size} edges: it "
            f"takes the whole property array, must gather props[edge_src] "
            f"and return one value per edge"
        )
    return values
