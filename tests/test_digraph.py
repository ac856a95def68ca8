"""The in-repo digraph (:mod:`repro.cu.digraph`).

networkx is the reference: on the same graph built in the same order,
every algorithm must yield the same order, because task-graph node ids
are numbered from those orders.  A discover run must not need networkx
at all.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cu.digraph import (
    DiGraph,
    condensation,
    descendants,
    strongly_connected_components,
    topological_generations,
    topological_sort,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def digraphs(draw):
    """Vertices in a drawn insertion order, then edges (self-loops and
    repeats included) among them."""
    nodes = draw(st.lists(st.integers(0, 40), unique=True, max_size=12))
    if not nodes:
        return nodes, []
    vertex = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    return nodes, edges


def build(cls, nodes, edges):
    g = cls()
    for node in nodes:
        g.add_node(node)
    for u, v in edges:
        g.add_edge(u, v, w=u - v)
    return g


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def _generations(fn, g, unfeasible):
    try:
        return list(fn(g))
    except unfeasible:
        return "cycle"


@settings(max_examples=300, deadline=None)
@given(graph=digraphs())
def test_same_orders_as_networkx(nx, graph):
    ours, ref = build(DiGraph, *graph), build(nx.DiGraph, *graph)

    assert list(ours.nodes) == list(ref.nodes)
    assert list(ours.edges(data=True)) == list(ref.edges(data=True))
    assert ours.number_of_edges() == ref.number_of_edges()
    for v in ref.nodes:
        assert list(ours.successors(v)) == list(ref.successors(v))
        assert list(ours.predecessors(v)) == list(ref.predecessors(v))
        assert ours.in_degree(v) == ref.in_degree(v)
        assert descendants(ours, v) == nx.descendants(ref, v)

    assert list(strongly_connected_components(ours)) == list(
        nx.strongly_connected_components(ref)
    )

    cond, ref_cond = condensation(ours), nx.condensation(ref)
    assert list(cond.nodes) == list(ref_cond.nodes)
    members = [cond.nodes[i]["members"] for i in cond.nodes]
    assert members == [ref_cond.nodes[i]["members"] for i in ref_cond.nodes]
    mapping = {v: i for i, scc in enumerate(members) for v in scc}
    assert mapping == ref_cond.graph["mapping"]
    assert list(cond.edges()) == list(ref_cond.edges())

    for g, r in ((cond, ref_cond), (ours, ref)):
        assert _generations(topological_generations, g, ValueError) == (
            _generations(nx.topological_generations, r, nx.NetworkXUnfeasible)
        )
        assert _generations(topological_sort, g, ValueError) == (
            _generations(nx.topological_sort, r, nx.NetworkXUnfeasible)
        )


def test_edge_attributes_are_shared_and_updated():
    g = DiGraph()
    g.add_node(1, cu="a")
    g.add_edge(1, 2, types={"RAW"})
    g.get_edge_data(1, 2)["types"].add("WAR")
    g.add_edge(1, 2, carried=True)
    assert list(g.nodes) == [1, 2]
    assert g.nodes[1] == {"cu": "a"}
    assert list(g.out_edges(1, data=True)) == [
        (1, 2, {"types": {"RAW", "WAR"}, "carried": True})
    ]
    assert g.get_edge_data(2, 1) is None
    assert g.get_edge_data(3, 1) is None


def test_discover_runs_without_networkx():
    """Importing networkx fails in the child; a validated task-parallel
    discover run must still complete."""
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "from repro.engine import DiscoveryConfig, DiscoveryEngine\n"
        "from repro.workloads import get_workload\n"
        "w = get_workload('fib')\n"
        "result = DiscoveryEngine(config=DiscoveryConfig(\n"
        "    source=w.source(1), name=w.name, entry=w.entry, validate=True,\n"
        ")).run()\n"
        "print(sorted({s.kind for s in result.suggestions}))\n"
    )
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['MPMD', 'SPMD']"
