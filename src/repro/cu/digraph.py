"""A small directed graph for CU and task graphs.

The graphs discovery works on have tens of vertices, and it needs only
five algorithms over them: strongly connected components, condensation,
topological order (whole and by generation) and reachability.  Every
algorithm here yields the same order as networkx 3.x does on the same
graph — vertices in insertion order, successors in edge insertion order —
so the task-graph node ids that :meth:`repro.cu.graph.CUGraph.chains`
derives from these orders do not depend on which library built them.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator


class DiGraph:
    """Vertices with attribute dicts, and directed edges with attribute
    dicts.  ``nodes`` maps each vertex to its attributes, in insertion
    order; adding an edge adds its missing end points (source first)."""

    __slots__ = ("nodes", "_succ", "_pred")

    def __init__(self) -> None:
        self.nodes: dict = {}
        self._succ: dict = {}
        self._pred: dict = {}

    def add_node(self, node: Hashable, **attrs) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self._succ[node] = {}
            self._pred[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, u: Hashable, v: Hashable, **attrs) -> None:
        self.add_node(u)
        self.add_node(v)
        data = self._succ[u].get(v)
        if data is None:
            data = self._succ[u][v] = self._pred[v][u] = {}
        data.update(attrs)

    def add_edges_from(self, edges: Iterable[tuple]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def get_edge_data(self, u: Hashable, v: Hashable):
        """The edge's attribute dict, or ``None`` without that edge."""
        return self._succ.get(u, {}).get(v)

    def edges(self, data: bool = False) -> Iterator[tuple]:
        """``(u, v)`` pairs — ``(u, v, attrs)`` with ``data`` — by source
        vertex, then in the order each edge was first added."""
        for u, succ in self._succ.items():
            for v, attrs in succ.items():
                yield (u, v, attrs) if data else (u, v)

    def out_edges(self, node: Hashable, data: bool = False) -> Iterator[tuple]:
        for v, attrs in self._succ[node].items():
            yield (node, v, attrs) if data else (node, v)

    def successors(self, node: Hashable) -> Iterator:
        return iter(self._succ[node])

    def predecessors(self, node: Hashable) -> Iterator:
        return iter(self._pred[node])

    def in_degree(self, node: Hashable) -> int:
        return len(self._pred[node])

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return sum(len(succ) for succ in self._succ.values())

    def __contains__(self, node: Hashable) -> bool:
        return node in self.nodes


def strongly_connected_components(g: DiGraph) -> Iterator[set]:
    """Tarjan's algorithm with Nuutila's refinement, iterative; roots are
    taken in vertex order, so components come out sinks first."""
    preorder: dict = {}
    lowlink: dict = {}
    found: set = set()
    stack: list = []
    counter = 0
    neighbors = {v: iter(g._succ[v]) for v in g.nodes}
    for source in g.nodes:
        if source in found:
            continue
        queue = [source]
        while queue:
            v = queue[-1]
            if v not in preorder:
                counter += 1
                preorder[v] = counter
            done = True
            for w in neighbors[v]:
                if w not in preorder:
                    queue.append(w)
                    done = False
                    break
            if not done:
                continue
            low = preorder[v]
            for w in g._succ[v]:
                if w not in found:
                    low = min(
                        low, lowlink[w] if preorder[w] > preorder[v]
                        else preorder[w]
                    )
            lowlink[v] = low
            queue.pop()
            if low == preorder[v]:
                scc = {v}
                while stack and preorder[stack[-1]] > preorder[v]:
                    scc.add(stack.pop())
                found.update(scc)
                yield scc
            else:
                stack.append(v)


def condensation(g: DiGraph) -> DiGraph:
    """The DAG of ``g``'s strongly connected components.  Component ``i``
    is the ``i``-th one :func:`strongly_connected_components` yields and
    carries its vertices as the ``members`` attribute; edges follow the
    order of ``g``'s edges."""
    cond = DiGraph()
    mapping: dict = {}
    for i, scc in enumerate(strongly_connected_components(g)):
        cond.add_node(i, members=scc)
        mapping.update((v, i) for v in scc)
    for u, v in g.edges():
        if mapping[u] != mapping[v]:
            cond.add_edge(mapping[u], mapping[v])
    return cond


def topological_generations(g: DiGraph) -> Iterator[list]:
    """Kahn's algorithm one generation at a time: the vertices with no
    in-edge in vertex order, then each later generation in the order its
    vertices' last in-edges were removed.  Raises ``ValueError`` on a
    cycle."""
    indegree = {v: len(p) for v, p in g._pred.items() if p}
    generation = [v for v, p in g._pred.items() if not p]
    while generation:
        following = []
        for v in generation:
            for w in g._succ[v]:
                indegree[w] -= 1
                if not indegree[w]:
                    following.append(w)
                    del indegree[w]
        yield generation
        generation = following
    if indegree:
        raise ValueError("graph has a cycle")


def topological_sort(g: DiGraph) -> Iterator:
    for generation in topological_generations(g):
        yield from generation


def descendants(g: DiGraph, source: Hashable) -> set:
    """Every vertex reachable from ``source`` by one or more edges,
    ``source`` itself excluded."""
    seen = {source}
    todo = [source]
    while todo:
        for w in g._succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    seen.discard(source)
    return seen

