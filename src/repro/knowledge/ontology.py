"""A small Intrinsic Capacity ontology.

The WHO ICOPE framework [16] organises healthy ageing around Intrinsic
Capacity and its five domains.  The KD pipeline needs that structure to
(a) verify that an expert variable subset covers every domain and (b)
navigate from variables to domains when reporting.  A full OWL stack is
unnecessary: the hierarchy is a rooted DAG with typed nodes, which
``networkx`` models directly.  ``networkx`` is imported only where a
graph is built or validated, so processes that never build the ontology
(model serving) do not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cohort.schema import IC_DOMAINS, PRO_ITEMS

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["IntrinsicCapacityOntology"]

#: Node kinds in the concept graph.
_KINDS = ("root", "domain", "variable")

#: Expert mapping of the activity variables onto IC domains: step count
#: and calories inform locomotion; sleep informs vitality (cf. [9]).
_ACTIVITY_DOMAINS = {
    "steps": "locomotion",
    "calories": "locomotion",
    "sleep_hours": "vitality",
}


class IntrinsicCapacityOntology:
    """Concept hierarchy: intrinsic_capacity -> 5 domains -> variables.

    The default construction covers the reproduction's full feature
    space: all 56 PRO items (each loading on its schema-declared domain)
    and the 3 activity variables.

    Examples
    --------
    >>> onto = IntrinsicCapacityOntology.default()
    >>> sorted(onto.domains()) == sorted(IC_DOMAINS)
    True
    >>> onto.domain_of("steps")
    'locomotion'
    """

    ROOT = "intrinsic_capacity"

    def __init__(self, graph: nx.DiGraph):
        self._validate(graph)
        self._graph = graph

    @classmethod
    def default(cls) -> "IntrinsicCapacityOntology":
        """Ontology over the canonical PRO item bank + activity variables."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_node(cls.ROOT, kind="root")
        for domain in IC_DOMAINS:
            g.add_node(domain, kind="domain")
            g.add_edge(cls.ROOT, domain, provenance="WHO ICOPE [16]")
        for item in PRO_ITEMS:
            g.add_node(item.name, kind="variable", scale_levels=item.n_levels,
                       reversed_scale=item.reversed_scale)
            g.add_edge(item.domain, item.name, provenance="MySAwH app item bank [9]")
        for var, domain in _ACTIVITY_DOMAINS.items():
            g.add_node(var, kind="variable", scale_levels=None, reversed_scale=False)
            g.add_edge(domain, var, provenance="wearable tracker [9]")
        return cls(g)

    @staticmethod
    def _validate(graph: nx.DiGraph) -> None:
        import networkx as nx

        if not nx.is_directed_acyclic_graph(graph):
            raise ValueError("ontology graph must be a DAG")
        for node, data in graph.nodes(data=True):
            kind = data.get("kind")
            if kind not in _KINDS:
                raise ValueError(f"node {node!r} has invalid kind {kind!r}")
            if kind == "variable" and graph.out_degree(node) != 0:
                raise ValueError(f"variable node {node!r} must be a leaf")
            if kind == "domain":
                parents = list(graph.predecessors(node))
                if parents != [IntrinsicCapacityOntology.ROOT]:
                    raise ValueError(
                        f"domain {node!r} must hang off the root, has {parents}"
                    )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def domains(self) -> list[str]:
        """All domain concepts."""
        return [n for n, d in self._graph.nodes(data=True) if d["kind"] == "domain"]

    def variables(self, domain: str | None = None) -> list[str]:
        """All variable leaves, optionally restricted to one domain."""
        if domain is None:
            return [
                n for n, d in self._graph.nodes(data=True) if d["kind"] == "variable"
            ]
        if domain not in self._graph or self._graph.nodes[domain]["kind"] != "domain":
            raise KeyError(f"unknown domain {domain!r}")
        return sorted(self._graph.successors(domain))

    def domain_of(self, variable: str) -> str:
        """The domain a variable loads on."""
        if variable not in self._graph:
            raise KeyError(f"unknown variable {variable!r}")
        if self._graph.nodes[variable]["kind"] != "variable":
            raise KeyError(f"{variable!r} is not a variable node")
        (parent,) = self._graph.predecessors(variable)
        return parent

    def coverage(self, variables: list[str]) -> dict[str, int]:
        """Count how many of ``variables`` fall in each domain.

        Used to check the expert subset spans all five domains — the
        paper requires "variables ... chosen to represent each of the
        five IC domains".
        """
        counts = {d: 0 for d in self.domains()}
        for var in variables:
            counts[self.domain_of(var)] += 1
        return counts

    def assert_full_coverage(self, variables: list[str]) -> None:
        """Raise ``ValueError`` unless every domain has >= 1 variable."""
        missing = [d for d, c in self.coverage(variables).items() if c == 0]
        if missing:
            raise ValueError(
                f"variable subset leaves IC domains uncovered: {missing}"
            )

    def provenance(self, child: str) -> str:
        """The provenance annotation of the edge leading to ``child``."""
        preds = list(self._graph.predecessors(child))
        if not preds:
            raise KeyError(f"{child!r} has no parent (is it the root?)")
        return self._graph.edges[preds[0], child]["provenance"]

    @property
    def graph(self) -> nx.DiGraph:
        """Read-only view of the underlying graph (do not mutate)."""
        return self._graph
