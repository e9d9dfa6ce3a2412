"""Property tests for the array graph core and the solve core built on it."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gneumann as gn
from gneumann import BoundaryData, Measure, VertexFunction
from gneumann.errors import DisconnectedClosureError
from instances import random_centered_phi, random_connected_graph, random_measure


def pair_model(names, edges):
    """Reference: a dict of pairs keyed in vertex order, first positive
    weight kept, degrees summed over the pairs in insertion order."""
    index = {v: i for i, v in enumerate(names)}
    pairs = {}
    for x, y, w in edges:
        if w > 0:
            pairs.setdefault((x, y) if index[x] < index[y] else (y, x), w)
    degree = {v: 0.0 for v in names}
    for (x, y), w in pairs.items():
        degree[x] += w
        degree[y] += w
    return index, pairs, degree


@st.composite
def edge_lists(draw):
    """Vertex names and an edge list holding each chosen edge once, some
    repeats with equal weights (either orientation), zero-weight edges on
    absent pairs and zero self-loops, shuffled."""
    n = draw(st.integers(min_value=1, max_value=8))
    names = [f"v{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                            min_size=len(chosen), max_size=len(chosen)))
    edges = [(names[i], names[j], w) for (i, j), w in zip(chosen, weights)]
    for x, y, w in draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []:
        edges.append((y, x, w) if draw(st.booleans()) else (x, y, w))
    absent = [p for p in pairs if p not in chosen]
    for i, j in draw(st.lists(st.sampled_from(absent), max_size=4)) if absent else []:
        edges.append((names[i], names[j], 0.0))
    for i in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2)):
        edges.append((names[i], names[i], 0.0))
    return names, draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_graph_matches_pair_model(case):
    names, edges = case
    g = gn.build_graph(names, edges)
    index, pairs, degree = pair_model(names, edges)

    def key(x, y):
        return (x, y) if index[x] < index[y] else (y, x)

    for x in names:
        assert g.degree(x) == degree[x]
        assert g.neighbors(x) == tuple(y for y in names if y != x and key(x, y) in pairs)
        for y in names:
            assert g.weight(x, y) == (0.0 if x == y else pairs.get(key(x, y), 0.0))
    expected = sorted(((x, y, w) for (x, y), w in pairs.items()),
                      key=lambda e: (index[e[0]], index[e[1]]))
    assert list(g.edges()) == expected


def _closure_instance(seed):
    """Random graph, measure and interior whose closure is connected."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    g = random_connected_graph(rng, n)
    m = random_measure(rng, g.vertices)
    k = int(rng.integers(1, n))
    interior = [g.vertices[i] for i in rng.choice(n, size=k, replace=False)]
    try:
        sub = gn.closure_subgraph(g, interior, m)
    except DisconnectedClosureError:
        assume(False)
    return rng, g, m, interior, sub


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_direct_solution_permutes_with_vertex_order(seed):
    rng, g, m, interior, sub = _closure_instance(seed)
    phi = random_centered_phi(rng, sub)
    shuffled = [g.vertices[i] for i in rng.permutation(g.n)]
    edges = list(g.edges())
    edges = [edges[i] for i in rng.permutation(len(edges))]
    sub2 = gn.closure_subgraph(gn.build_graph(shuffled, edges), interior, m)
    u1 = gn.solve_direct(sub, phi).u
    u2 = gn.solve_direct(sub2, BoundaryData.for_closure(sub2, phi.values)).u
    scale = max(1.0, max(abs(v) for v in u1.values.values()))
    for x in sub.closure:
        assert u2[x] == pytest.approx(u1[x], abs=1e-10 * scale)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_direct_solution_is_linear_in_phi(seed, a, b):
    rng, g, m, interior, sub = _closure_instance(seed)
    phi1 = random_centered_phi(rng, sub)
    phi2 = random_centered_phi(rng, sub)
    combo = BoundaryData.for_closure(sub, {
        y: a * phi1.values[y] + b * phi2.values[y] for y in sub.boundary
    })
    u = gn.solve_direct(sub, combo).u.to_vector(sub.closure)
    u1 = gn.solve_direct(sub, phi1).u.to_vector(sub.closure)
    u2 = gn.solve_direct(sub, phi2).u.to_vector(sub.closure)
    scale = 1.0 + abs(a) * np.max(np.abs(u1)) + abs(b) * np.max(np.abs(u2))
    assert np.max(np.abs(u - (a * u1 + b * u2))) <= 1e-10 * scale


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=1e-3, max_value=1e3))
def test_boundary_measure_solution_scales_with_m_and_mu(seed, c):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    g = random_connected_graph(rng, n)
    m = random_measure(rng, g.vertices)
    k = int(rng.integers(1, n + 1))
    boundary = [g.vertices[i] for i in sorted(rng.choice(n, size=k, replace=False))]
    mu = random_measure(rng, boundary)
    raw = rng.standard_normal(k)
    muv = mu.to_vector(boundary)
    phi = VertexFunction(dict(zip(boundary, raw - (raw @ muv) / muv.sum())))

    def scaled(measure):
        return Measure({x: c * v for x, v in measure.values.items()})

    u1 = gn.solve_boundary_measure(g, boundary, m, mu, phi).u.to_vector(g.vertices)
    uc = gn.solve_boundary_measure(g, boundary, scaled(m), scaled(mu), phi).u.to_vector(g.vertices)
    assert np.max(np.abs(uc - c * u1)) <= 1e-10 * c * max(1.0, np.max(np.abs(u1)))
