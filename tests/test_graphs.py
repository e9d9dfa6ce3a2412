import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gneumann as gn
from gneumann.errors import (
    AsymmetricDuplicateError,
    DisconnectedClosureError,
    EmptyInteriorError,
    InputError,
    InteriorIsWholeGraphError,
    NegativeWeightError,
    SelfLoopError,
    UnknownVertexError,
)
from gneumann.fixtures import complete_graph, cycle_graph, star_graph
from instances import random_connected_graph


def test_build_symmetrizes_single_edge():
    g = gn.build_graph(["1", "2"], [("1", "2", 1.0)])
    assert g.weight("1", "2") == 1.0
    assert g.weight("2", "1") == 1.0
    assert g.weight("1", "1") == 0.0
    assert g.weight("2", "2") == 0.0


def test_build_path_graph(p3):
    assert p3.weight("1", "2") == 1.0
    assert p3.weight("2", "3") == 1.0
    assert p3.weight("1", "3") == 0.0
    assert p3.degree("2") == 2.0


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        gn.build_graph(["1", "2"], [("1", "1", 0.5)])


def test_zero_self_loop_is_ignored():
    g = gn.build_graph(["1", "2"], [("1", "1", 0.0), ("1", "2", 1.0)])
    assert g.weight("1", "1") == 0.0


def test_build_rejects_negative_weight():
    with pytest.raises(NegativeWeightError):
        gn.build_graph(["1", "2"], [("1", "2", -1.0)])


def test_build_rejects_conflicting_duplicates():
    with pytest.raises(AsymmetricDuplicateError):
        gn.build_graph(["1", "2"], [("1", "2", 1.0), ("2", "1", 2.0)])
    # consistent duplicates are fine
    g = gn.build_graph(["1", "2"], [("1", "2", 1.0), ("2", "1", 1.0)])
    assert g.weight("1", "2") == 1.0


def test_build_rejects_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        gn.build_graph(["1", "2"], [("1", "3", 1.0)])


@pytest.mark.parametrize("i, j, w, bad", [
    ([0, 5], [1, 1], [1.0, 1.0], 5),
    ([-1], [2], [1.0], -1),
    ([0, 1], [1, 3], [1.0, 1.0], 3),  # the second endpoint of an edge
    # the first bad edge in input order decides, whatever its fault
    ([0, 9, 1], [1, 1, 1], [-1.0, 1.0, 1.0], None),
    ([3, 0], [1, 1], [1.0, -1.0], 3),
])
def test_from_arrays_rejects_an_index_outside_the_vertices(i, j, w, bad):
    with pytest.raises(UnknownVertexError if bad is not None else NegativeWeightError) as e:
        gn.build_graph(["a", "b", "c"], arrays=(np.array(i), np.array(j), np.array(w)))
    if bad is not None:
        assert e.value.context == {"vertex": bad}


@pytest.mark.parametrize("i, j, w, cause", [
    ([0, 1], [1], [1.0, 1.0], "of one length"),  # j is short
    ([0], [1], [1.0, 2.0], "of one length"),  # w is long
    ([[0]], [[1]], [[1.0]], "one-dimensional"),
    ([0.5], [1], [1.0], "integer dtype"),  # not truncated to the edge (a, b)
    ([0], [1.0], [1.0], "integer dtype"),
])
def test_from_arrays_rejects_malformed_edge_arrays(i, j, w, cause):
    with pytest.raises(InputError, match=cause):
        gn.WeightedGraph.from_arrays(["a", "b", "c"], i, j, w)


def test_from_arrays_accepts_empty_edge_lists():
    g = gn.WeightedGraph.from_arrays(["a", "b"], [], [], [])
    assert g.n == 2 and list(g.edges()) == []


def test_zero_weight_edges_are_dropped():
    g = gn.build_graph(["1", "2", "3"], [("1", "2", 1.0), ("2", "3", 0.0)])
    assert g.neighbors("2") == ("1",)
    assert g.weight("2", "3") == 0.0


def test_is_connected(p3):
    assert gn.is_connected(p3)
    assert not gn.is_connected(gn.build_graph(["1", "2"], []))
    broken = gn.build_graph(["1", "2", "3"], [("1", "2", 1.0), ("2", "3", 0.0)])
    assert not gn.is_connected(broken)


def test_vertex_boundary_examples(p3):
    assert set(gn.vertex_boundary(p3, ["2"])) == {"1", "3"}
    assert set(gn.vertex_boundary(p3, ["1"])) == {"2"}
    broken = gn.build_graph(["1", "2", "3"], [("1", "2", 1.0), ("2", "3", 0.0)])
    assert set(gn.vertex_boundary(broken, ["2"])) == {"1"}


def test_vertex_boundary_rejects_bad_interior(p3):
    with pytest.raises(EmptyInteriorError):
        gn.vertex_boundary(p3, [])
    with pytest.raises(InteriorIsWholeGraphError):
        gn.vertex_boundary(p3, ["1", "2", "3"])


def test_closure_p3(p3_closure):
    sub = p3_closure
    assert sub.interior == ("2",)
    assert set(sub.boundary) == {"1", "3"}
    assert sub.graph.weight("1", "2") == 1.0
    assert sub.graph.weight("2", "3") == 1.0


def test_closure_cuts_boundary_boundary_edges():
    tri = gn.build_graph(["1", "2", "3"],
                         [("1", "2", 1.0), ("2", "3", 1.0), ("1", "3", 1.0)])
    sub = gn.closure_subgraph(tri, ["1"], gn.Measure.uniform(tri.vertices))
    assert set(sub.boundary) == {"2", "3"}
    assert sub.graph.weight("2", "3") == 0.0
    assert sub.graph.weight("1", "2") == 1.0
    assert sub.graph.weight("1", "3") == 1.0


def test_closure_star_leaf_interior():
    star = star_graph(3)
    sub = gn.closure_subgraph(star, ["leaf1"], gn.Measure.uniform(star.vertices))
    assert set(sub.closure) == {"leaf1", "center"}
    assert gn.is_connected(sub.graph)


def test_fixture_families():
    assert gn.is_connected(cycle_graph(5))
    assert cycle_graph(5).degree("1") == 2.0
    tri = complete_graph(3, weight=2.0)
    assert tri.weight("1", "3") == 2.0
    assert star_graph(4).degree("center") == 4.0


def test_closure_detects_disconnection():
    p4 = gn.build_graph(["1", "2", "3", "4"],
                        [("1", "2", 1.0), ("2", "3", 1.0), ("3", "4", 1.0)])
    with pytest.raises(DisconnectedClosureError):
        gn.closure_subgraph(p4, ["1", "4"], gn.Measure.uniform(p4.vertices))


def test_closure_requires_measure_on_whole_closure(p3):
    m = gn.Measure({"1": 1.0, "2": 1.0})  # missing vertex 3
    with pytest.raises(gn.DomainMismatchError):
        gn.closure_subgraph(p3, ["2"], m)


def test_measure_must_be_positive():
    with pytest.raises(gn.NonPositiveMeasureError):
        gn.Measure({"1": 0.0})
    with pytest.raises(gn.NonPositiveMeasureError):
        gn.Measure({"1": -2.0})


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_graphs_are_symmetric_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    g = random_connected_graph(rng, n)
    for x in g.vertices:
        assert g.weight(x, x) == 0.0
        for y in g.vertices:
            assert g.weight(x, y) == g.weight(y, x)
            assert g.weight(x, y) >= 0.0


def _union_find_connected(g):
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y, w in g.edges():
        if w > 0:
            parent[find(x)] = find(y)
    roots = {find(v) for v in g.vertices}
    return len(roots) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_is_connected_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    names = [str(i) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                edges.append((names[i], names[j], float(rng.uniform(0, 1))))
    g = gn.build_graph(names, edges)
    assert gn.is_connected(g) == _union_find_connected(g)


def test_boundary_members_have_positive_edge_into_interior():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(rng, n)
        k = int(rng.integers(1, n))
        interior = [g.vertices[i] for i in rng.choice(n, size=k, replace=False)]
        boundary = gn.vertex_boundary(g, interior)
        assert set(boundary).isdisjoint(interior)
        for y in boundary:
            assert any(g.weight(y, x) > 0 for x in interior)


def test_closure_preserves_weights_touching_interior():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(rng, n)
        k = int(rng.integers(1, n))
        interior = [g.vertices[i] for i in rng.choice(n, size=k, replace=False)]
        try:
            sub = gn.closure_subgraph(g, interior, gn.Measure.uniform(g.vertices))
        except DisconnectedClosureError:
            continue
        iset = set(sub.interior)
        for x in sub.closure:
            for y in sub.closure:
                if x in iset or y in iset:
                    assert sub.graph.weight(x, y) == g.weight(x, y)
                else:
                    assert sub.graph.weight(x, y) == 0.0
