"""The PMR data structure (Section 6.4).

``R = (N, E, src, tgt, gamma, S, T)`` over a base graph ``G``: an unlabeled
inner graph, a total homomorphism ``gamma`` mapping inner nodes to base
nodes and inner edges to base edges such that sources and targets commute,
and designated source and target node sets.  Every inner S-to-T path
projects through gamma to a base path; ``SPaths(R)`` is the set of those
projections.

A product graph ``G x A`` (Section 6.2) *is* a PMR of ``G``: its nodes
``(u, q)`` and edges ``(e, t)`` map to ``u`` and ``e`` by the
first-component projection, a homomorphism by construction, and its trimmed
part represents exactly the query's matching paths (Section 6.4).
:class:`repro.rpq.product_graph.ProductGraph` is therefore a subclass whose
gamma is the one shared :data:`PROJECTION`; trimming, the finiteness test and
every path-mode search (:mod:`repro.pmr.ops`, :mod:`repro.pmr.enumerate`)
are written once, against this class.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import itemgetter

from repro.errors import GraphError
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.graph.paths import Path

#: Inner edges of a PMR carry this dummy label (PMR graphs are unlabeled).
INNER_LABEL = ""


class _Projection:
    """The gamma of a product graph: ``(u, q) -> u`` and ``(e, t) -> e``.

    ``gamma[obj]`` works as on a dict, and ``gamma.__getitem__`` is the bare
    C-level ``itemgetter(0)``, which is what the searches bind.
    """

    __slots__ = ()
    __getitem__ = staticmethod(itemgetter(0))


PROJECTION = _Projection()


class PMR:
    """A validated path multiset representation."""

    __slots__ = ("inner", "base", "gamma", "sources", "targets", "_trimmed")

    def __init__(
        self,
        inner: EdgeLabeledGraph,
        base: EdgeLabeledGraph,
        gamma: Mapping[ObjectId, ObjectId],
        sources: Iterable[ObjectId],
        targets: Iterable[ObjectId],
    ):
        self.inner = inner
        self.base = base
        self.gamma = dict(gamma)
        self.sources = frozenset(sources)
        self.targets = frozenset(targets)
        self._trimmed: "PMR | None" = None
        self._validate()

    def _validate(self) -> None:
        for node in self.inner.iter_nodes():
            image = self.gamma.get(node)
            if image is None or not self.base.has_node(image):
                raise GraphError(
                    f"gamma does not map inner node {node!r} to a base node"
                )
        for edge in self.inner.iter_edges():
            image = self.gamma.get(edge)
            if image is None or not self.base.has_edge(image):
                raise GraphError(
                    f"gamma does not map inner edge {edge!r} to a base edge"
                )
            src, tgt = self.inner.endpoints(edge)
            if self.base.src(image) != self.gamma[src]:
                raise GraphError(
                    f"gamma breaks src-commutation on inner edge {edge!r}"
                )
            if self.base.tgt(image) != self.gamma[tgt]:
                raise GraphError(
                    f"gamma breaks tgt-commutation on inner edge {edge!r}"
                )
        stray = (self.sources | self.targets) - self.inner.nodes
        if stray:
            raise GraphError(f"source/target nodes not in the inner graph: {stray!r}")

    @classmethod
    def _trusted(cls, inner, base, gamma, sources: frozenset, targets: frozenset):
        """Construct without validating, for a gamma that is a homomorphism
        by construction: a product graph's, or a valid PMR's on a subgraph."""
        pmr = object.__new__(cls)
        pmr.inner, pmr.base, pmr.gamma = inner, base, gamma
        pmr.sources, pmr.targets = sources, targets
        pmr._trimmed = None
        return pmr

    # ------------------------------------------------------------------
    def project_objects(self, inner_objects: tuple) -> Path:
        """``gamma(rho)`` — the base path an inner path, given as its object
        tuple, denotes."""
        return Path(self.base, tuple(self.gamma[obj] for obj in inner_objects))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PMR inner_nodes={self.inner.num_nodes} "
            f"inner_edges={self.inner.num_edges} "
            f"sources={len(self.sources)} targets={len(self.targets)}>"
        )

    @classmethod
    def build(
        cls,
        base: EdgeLabeledGraph,
        nodes: Iterable[tuple[ObjectId, ObjectId]],
        edges: Iterable[tuple[ObjectId, ObjectId, ObjectId, ObjectId]],
        sources: Iterable[ObjectId],
        targets: Iterable[ObjectId],
    ) -> "PMR":
        """Convenience constructor.

        ``nodes`` are ``(inner_id, base_node)`` pairs; ``edges`` are
        ``(inner_id, inner_src, inner_tgt, base_edge)`` quadruples — this is
        the textual format the paper's Section 6.4 figure uses (inner object
        annotated with its gamma image).
        """
        inner = EdgeLabeledGraph()
        gamma: dict = {}
        for inner_id, base_node in nodes:
            inner.add_node(inner_id)
            gamma[inner_id] = base_node
        for inner_id, inner_src, inner_tgt, base_edge in edges:
            inner.add_edge(inner_id, inner_src, inner_tgt, INNER_LABEL)
            gamma[inner_id] = base_edge
        return cls(inner, base, gamma, sources, targets)
