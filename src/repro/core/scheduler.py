"""Interaction schedulers for the agent-level engine.

The paper's model is the *uniform random scheduler on the clique*: each
discrete step selects an ordered pair of distinct agents uniformly at
random, independently across steps
(:class:`UniformPairScheduler`).  Angluin et al.'s more general model
restricts interactions to the edges of a graph; we support it through
:class:`GraphPairScheduler`, which samples an edge uniformly and
orients it uniformly at random.

Schedulers only decide *who* interacts — engines decide what happens —
so the same protocol runs unmodified under every scheduler.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    import networkx as nx

__all__ = ["PairScheduler", "UniformPairScheduler", "GraphPairScheduler"]


class PairScheduler(abc.ABC):
    """Samples ordered agent pairs ``(initiator, responder)``."""

    def __init__(self, n: int):
        if n < 2:
            raise SchedulerError(f"a population needs at least 2 agents, got {n}")
        self._n = int(n)

    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @abc.abstractmethod
    def sample_pairs(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``count`` ordered pairs as two index arrays.

        The two arrays are element-wise distinct (an agent never
        interacts with itself).
        """


class UniformPairScheduler(PairScheduler):
    """Uniform ordered pairs of distinct agents on the clique.

    This is the paper's scheduler: both the unordered pair and its
    orientation are uniform.  Distinctness is achieved without
    rejection: the responder is drawn from ``n - 1`` values and shifted
    past the initiator, which maps the draw bijectively onto
    ``{0..n-1} \\ {initiator}``.
    """

    def sample_pairs(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if count < 0:
            raise SchedulerError(f"count must be non-negative, got {count}")
        initiators = rng.integers(0, self._n, size=count)
        responders = rng.integers(0, self._n - 1, size=count)
        responders += responders >= initiators
        return initiators, responders


class GraphPairScheduler(PairScheduler):
    """Uniform random edge of an interaction graph, uniformly oriented.

    Models Angluin et al.'s graph-restricted populations.  The graph
    must be simple, undirected, and contain at least one edge; agents
    are the nodes ``0..n-1``.
    """

    def __init__(self, graph: nx.Graph):
        n = graph.number_of_nodes()
        super().__init__(n)
        if graph.number_of_edges() == 0:
            raise SchedulerError("interaction graph has no edges")
        if set(graph.nodes) != set(range(n)):
            raise SchedulerError(
                "interaction graph nodes must be exactly 0..n-1; "
                "use networkx.convert_node_labels_to_integers first"
            )
        if any(u == v for u, v in graph.edges):
            raise SchedulerError("interaction graph must not contain self-loops")
        edges = np.asarray(list(graph.edges), dtype=np.int64)
        self._edge_u = edges[:, 0].copy()
        self._edge_v = edges[:, 1].copy()

    @classmethod
    def complete(cls, n: int) -> "GraphPairScheduler":
        """Graph scheduler on the clique (equivalent to the uniform scheduler)."""
        import networkx as nx  # lazy: `import repro` must not pay for it

        return cls(nx.complete_graph(n))

    def sample_pairs(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if count < 0:
            raise SchedulerError(f"count must be non-negative, got {count}")
        picks = rng.integers(0, self._edge_u.size, size=count)
        flip = rng.integers(0, 2, size=count).astype(bool)
        initiators = np.where(flip, self._edge_v[picks], self._edge_u[picks])
        responders = np.where(flip, self._edge_u[picks], self._edge_v[picks])
        return initiators, responders
