"""Finite weighted graphs, measures, and the Neumann problems on them.

A graph is a symmetric nonnegative edge-weight function with vanishing
diagonal over an ordered finite vertex set.  Vertices carry opaque string
identifiers; all numeric kernels work on the dense indices 0..n-1 assigned
at construction.  The weights are stored once, as symmetric CSR arrays
(``indptr``, ``indices``, ``data``, columns ascending within each row)
beside the degree vector; vertex strings appear only in ``vertices``,
``index`` and the per-vertex accessors.  The vertex boundary and the
closure are mask operations on these arrays, and connectivity is a
depth-first search over their rows.  Zero-weight entries are dropped
(zero weight means "no edge").  A measure, like a vertex function, is a
vertex tuple beside a read-only float array.  A Neumann problem is a
graph with a boundary set carrying its own measure mu; the closure of an
interior set is the one whose mu is m on its vertex boundary.  All types
are immutable after construction: their arrays are read-only.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AsymmetricDuplicateError,
    DisconnectedClosureError,
    DomainMismatchError,
    EmptyInteriorError,
    InputError,
    InteriorIsWholeGraphError,
    NegativeWeightError,
    NonPositiveMeasureError,
    SelfLoopError,
    UnknownVertexError,
)

__all__ = [
    "WeightedGraph",
    "Measure",
    "NeumannProblem",
    "SubgraphClosure",
    "build_graph",
    "is_connected",
    "vertex_boundary",
    "closure_subgraph",
]


class WeightedGraph:
    """Symmetric edge weights over an ordered finite vertex set, in CSR form.

    ``indptr``, ``indices`` and ``data`` hold every positive-weight edge in
    both directions, columns ascending within each row; ``rows`` holds the
    row of each entry beside ``indices`` and ``deg`` the weighted degrees.
    The arrays are read-only and instances are safe to share.
    """

    def __init__(self, vertices: Sequence, edges: Iterable[tuple]):
        """From (x, y, weight) triples, checked and stored as
        ``from_arrays`` does; an endpoint outside ``vertices`` is a bad
        edge in the same input order."""
        verts = tuple(map(str, vertices))
        index = _vertex_index(verts)
        triples = [(str(x), str(y), float(w)) for x, y, w in edges]
        # unknown endpoints get indices from n up, named for the error message
        names = dict(index)
        i = [names.setdefault(x, len(names)) for x, _, _ in triples]
        j = [names.setdefault(y, len(names)) for _, y, _ in triples]
        self._build(verts, index, np.array(i, dtype=np.intp), np.array(j, dtype=np.intp),
                    np.array([t[2] for t in triples], dtype=float), tuple(names))

    @classmethod
    def from_arrays(cls, vertices: Sequence, i, j, w) -> "WeightedGraph":
        """Graph whose k-th edge is (vertices[i[k]], vertices[j[k]], w[k]).

        ``i``, ``j`` and ``w`` are one-dimensional and of one length, and
        ``i`` and ``j`` of an integer dtype (an ``InputError`` otherwise).
        Weights are symmetrized; an index outside ``range(len(vertices))``,
        positive self-loops, negative or non-finite weights and conflicting
        duplicates are rejected, the first bad edge in input order raising.
        """
        verts = tuple(map(str, vertices))
        arrays = [np.asarray(a) for a in (i, j, w)]
        shapes = [a.shape for a in arrays]
        if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
            raise InputError(f"edge arrays i, j and w must be one-dimensional and of one "
                             f"length, got shapes {shapes[0]}, {shapes[1]} and {shapes[2]}",
                             shapes=shapes)
        for name, a in zip("ij", arrays):
            if a.size and a.dtype.kind not in "iu":
                raise InputError(f"edge index array {name} must have an integer dtype, got "
                                 f"{a.dtype}", array=name, dtype=str(a.dtype))
        g = cls.__new__(cls)
        g._build(verts, _vertex_index(verts), arrays[0].astype(np.intp, copy=False),
                 arrays[1].astype(np.intp, copy=False), arrays[2].astype(float, copy=False), verts)
        return g

    def _build(self, verts: tuple, index: dict, i: np.ndarray, j: np.ndarray, w: np.ndarray,
               names: tuple) -> None:
        """Check the edges and store the CSR arrays; ``names`` names every
        index, the ones from n up being unknown endpoints."""
        n = len(verts)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        known = (lo >= 0) & (hi < n)
        loop = known & (i == j)
        bad_weight = ~(np.isfinite(w) & (w >= 0))
        pair = known & ~loop & ~bad_weight
        # the sentinel key n*n lies above every pair key
        key = np.where(known, lo * n + hi, n * n)
        positive = np.flatnonzero(pair & (w > 0))
        keys, first = np.unique(key[positive], return_index=True)
        kept = np.sort(positive[first])  # first appearance of each pair, in input order
        # an edge conflicts with the first positive weight given for its pair
        keys = np.append(keys, n * n)
        slot = np.searchsorted(keys, key)
        prior = np.append(positive[first], 0)[slot]
        conflict = pair & (keys[slot] == key) & (prior < np.arange(len(key))) & (w != w[prior])
        bad = ~known | bad_weight | (loop & (w > 0)) | conflict
        if bad.any():
            k = int(np.argmax(bad))
            for v in (int(i[k]), int(j[k])):
                if not 0 <= v < len(names):  # only from_arrays leaves an index unnamed
                    raise UnknownVertexError(f"vertex index {v} outside 0..{n - 1}", vertex=v)
            _raise_edge_error((names[i[k]], names[j[k]], float(w[k])), index, float(w[prior[k]]))

        # degrees accumulate over the interleaved endpoints in input order,
        # which fixes their rounding
        lo, hi, w = lo[kept], hi[kept], w[kept]
        self.deg = np.bincount(np.column_stack((lo, hi)).ravel(), weights=np.repeat(w, 2),
                               minlength=n).astype(float, copy=False)
        rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        order = np.argsort(rows * n + cols)  # the keys are distinct: any sort orders them alike
        self.rows, self.indices = rows[order], cols[order]
        self.data = np.concatenate((w, w))[order]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        for a in (self.deg, self.rows, self.indices, self.data, self.indptr):
            a.flags.writeable = False
        self.vertices = verts
        self._index = index

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, x) -> int:
        x = str(x)
        try:
            return self._index[x]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {x!r}", vertex=x) from None

    def __contains__(self, x) -> bool:
        return str(x) in self._index

    def weight(self, x, y) -> float:
        i, j = self.index(x), self.index(y)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = lo + int(np.searchsorted(self.indices[lo:hi], j))
        return float(self.data[k]) if k < hi and self.indices[k] == j else 0.0

    def degree(self, x) -> float:
        """Weighted degree: the sum of edge weights at ``x``."""
        return float(self.deg[self.index(x)])

    def neighbors(self, x) -> tuple[str, ...]:
        i = self.index(x)
        return tuple(self.vertices[j] for j in self.indices[self.indptr[i]:self.indptr[i + 1]].tolist())

    def edges(self) -> Iterable[tuple[str, str, float]]:
        """Each positive-weight edge once, as (x, y, weight), ascending in
        (index(x), index(y))."""
        up = self.rows < self.indices
        for i, j, w in zip(self.rows[up].tolist(), self.indices[up].tolist(), self.data[up].tolist()):
            yield self.vertices[i], self.vertices[j], w

    @cached_property
    def laplacian_matrix(self, out: np.ndarray | None = None) -> np.ndarray:
        """Unweighted-by-measure Laplacian: diag(degrees) - weight matrix,
        cached read-only.  ``laplacian_into`` runs the same function on an
        array the caller holds."""
        L = np.zeros((self.n, self.n)) if out is None else out
        L[self.rows, self.indices] = -self.data
        np.fill_diagonal(L, self.deg)
        if out is None:
            L.flags.writeable = False
        return L

    def laplacian_into(self, out: np.ndarray) -> np.ndarray:
        """Write L into ``out``, a zeroed n x n array or view, uncached, and
        return it: a solver that holds a larger system fills L in place
        with no n x n array of its own."""
        # the property's own function, looked up at call time: one rule
        # fills both, and a wrapper of ``func`` (the benchmark's tracer
        # installs one) sees this fill as well
        return type(self).laplacian_matrix.func(self, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.vertices == other.vertices and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.vertices, self.indptr.tobytes(), self.indices.tobytes(), self.data.tobytes()))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, edges={len(self.data) // 2})"


def _vertex_index(verts: tuple) -> dict:
    index = dict(zip(verts, range(len(verts))))
    if len(index) != len(verts):
        raise UnknownVertexError("duplicate vertex identifiers", vertices=verts)
    return index


def _raise_edge_error(edge: tuple, index: dict, first: float):
    """Raise the error for the first invalid edge, checked in input order."""
    x, y, w = edge
    if x not in index:
        raise UnknownVertexError(f"unknown vertex {x!r} in edge list", vertex=x)
    if y not in index:
        raise UnknownVertexError(f"unknown vertex {y!r} in edge list", vertex=y)
    if not math.isfinite(w) or w < 0:
        raise NegativeWeightError(
            f"edge ({x!r},{y!r}) has invalid weight {w}", x=x, y=y, weight=w
        )
    if x == y:
        raise SelfLoopError(f"self-loop at {x!r} with weight {w}", vertex=x)
    key = (x, y) if index[x] < index[y] else (y, x)
    raise AsymmetricDuplicateError(
        f"conflicting weights for edge {key}: {first} vs {w}",
        x=key[0], y=key[1], first=first, second=w,
    )


class _VertexValues:
    """Floats on distinct vertices: the tuple ``vertices`` beside the
    read-only ``array`` of values in its order.  Built from a mapping, or
    from a vertex order and a vector; a repeated name keeps its first
    position and its last value, as in a dict.  The name-to-position index
    is built on the first lookup by name.  Instances are equal when they
    are defined on the same set with equal values, whatever the order.
    Subclasses name their domain mismatch in ``_mismatch``."""

    def __init__(self, values: Mapping):
        self._set(list(map(str, values)), np.array([float(v) for v in values.values()]))

    @classmethod
    def from_vector(cls, order: Sequence[str], vec):
        vec = np.array(vec, dtype=float)  # a copy no caller writes into
        if vec.ndim != 1 or len(order) != vec.shape[0]:
            raise DomainMismatchError("vector length does not match vertex order")
        # raw repeats collapse first, as in dict(zip(order, vec)): [1, "1", 1]
        # keeps the value of "1", where str names alone would keep the last 1's
        if len(set(order)) < len(order):
            return cls(dict(zip(order, vec.tolist())))
        out = cls.__new__(cls)
        out._set(list(map(str, order)), vec)
        return out

    def _set(self, names: list, a: np.ndarray) -> None:
        if len(set(names)) < len(names):
            kept = dict(zip(names, a.tolist()))
            names, a = list(kept), np.array(list(kept.values()))
        a.flags.writeable = False
        self.vertices, self.array = tuple(names), a

    @cached_property
    def _index(self) -> dict:
        return dict(zip(self.vertices, range(len(self.vertices))))

    def _position(self, x) -> int:
        return self._index[str(x)]

    def _at(self, names: Sequence) -> np.ndarray:
        """The values at ``names``, each of which must be defined: ``array``
        itself when they are the stored order."""
        if tuple(names) == self.vertices:
            return self.array
        return self.array[[self._position(x) for x in names]]

    @property
    def values(self) -> dict[str, float]:
        return dict(zip(self.vertices, self.array.tolist()))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.vertices)

    def __getitem__(self, x) -> float:
        return self.array.item(self._position(x))

    def __contains__(self, x) -> bool:
        return str(x) in self._index

    def to_vector(self, order: Sequence[str]) -> np.ndarray:
        """The values in the given vertex order, as a new array; the
        domains must coincide."""
        order = tuple(order)
        if order == self.vertices:
            return self.array.copy()
        if set(order) != self._index.keys():
            raise DomainMismatchError(
                self._mismatch,
                missing=sorted(set(order) - set(self.vertices)),
                extra=sorted(set(self.vertices) - set(order)),
            )
        return self.array[[self._index[x] for x in order]]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (self.domain == other.domain
                                 and bool(np.all(self.array == other._at(self.vertices))))

    def __repr__(self):
        return f"{type(self).__name__}(values={self.values!r})"


class Measure(_VertexValues):
    """Strictly positive vertex measure with finite total mass."""

    _mismatch = "measure domain does not match the requested vertex set"

    def _set(self, names: list, a: np.ndarray) -> None:
        super()._set(names, a)
        bad = ~(np.isfinite(self.array) & (self.array > 0))
        if bad.any():
            k = int(np.argmax(bad))
            v, m = self.vertices[k], float(self.array[k])
            raise NonPositiveMeasureError(
                f"measure must be strictly positive and finite, got m({v!r}) = {m}",
                vertex=v, value=m,
            )

    def _position(self, x) -> int:
        try:
            return super()._position(x)
        except KeyError:
            x = str(x)
            raise UnknownVertexError(f"measure not defined at {x!r}", vertex=x) from None

    @cached_property
    def total(self) -> float:
        return float(sum(self.array.tolist()))

    def restrict(self, vertices: Iterable) -> "Measure":
        names = [str(v) for v in vertices]
        return Measure.from_vector(names, self._at(names))

    @classmethod
    def uniform(cls, vertices: Iterable, value: float = 1.0) -> "Measure":
        return cls({v: value for v in vertices})

    def __hash__(self):
        return hash(tuple(sorted(zip(self.vertices, self.array.tolist()))))

    def __repr__(self):
        return f"Measure(n={len(self.vertices)}, total={self.total:g})"


class NeumannProblem:
    """The Neumann problem on ``graph`` with measure ``measure`` and a
    designated ``boundary`` set carrying its own finite measure ``mu``,
    held unchecked: every route checks it when it solves."""

    def __init__(self, graph: WeightedGraph, boundary: Sequence[str], measure: Measure,
                 mu: Measure):
        self.graph, self.boundary, self.measure = graph, tuple(map(str, boundary)), measure
        self._boundary_measure = mu

    def boundary_measure(self) -> Measure:
        """The measure mu the boundary carries."""
        return self._boundary_measure

    def __repr__(self):
        return f"{type(self).__name__}(n={self.graph.n}, boundary={len(self.boundary)})"


class SubgraphClosure(NeumannProblem):
    """Interior set, its vertex boundary, and the induced closure graph,
    as the Neumann problem with mu = m on the vertex boundary.

    Built only by ``closure_subgraph``, which checks that the closure
    graph is connected, from that graph (its first ``k`` vertices the
    interior, the rest the vertex boundary) and the measure in its order.
    The closure graph keeps every weight with at least one endpoint in the
    interior and zeroes all boundary-boundary weights.  Each boundary
    quantity is a slice of the closure order: ``boundary_index`` is
    ``k..n-1``, ``measure_vector`` the measure's array and mu its tail.
    """

    def __init__(self, graph: WeightedGraph, k: int, measure: Measure):
        V, self.measure_vector = graph.vertices, measure.array
        super().__init__(graph, V[k:], measure, Measure.from_vector(V[k:], measure.array[k:]))
        self.interior, self.boundary_set = V[:k], frozenset(V[k:])
        self.boundary_index = np.arange(k, graph.n)
        self.boundary_index.flags.writeable = False

    @property
    def closure(self) -> tuple[str, ...]:
        return self.graph.vertices


def build_graph(vertices: Sequence, edges: Iterable[tuple] = (), *,
                arrays: tuple | None = None) -> WeightedGraph:
    """Build a graph from a vertex list and (x, y, weight) triples, or
    from ``arrays = (i, j, w)`` as ``WeightedGraph.from_arrays`` takes them.

    Weights are symmetrized (an edge given once is stored both ways).
    Positive self-loops, negative weights, conflicting duplicates and
    unknown endpoints are rejected.
    """
    if arrays is not None:
        return WeightedGraph.from_arrays(vertices, *arrays)
    return WeightedGraph(vertices, edges)


def is_connected(g: WeightedGraph) -> bool:
    """True iff every vertex pair is joined by a chain of positive weights."""
    if g.n == 0:
        return True
    # depth-first over the CSR rows: linear in n + nnz whatever the graph's
    # diameter, where a level-by-level array search pays per level
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    while stack:
        i = stack.pop()
        for j in indices[indptr[i]:indptr[i + 1]]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)


def _check_interior(g: WeightedGraph, interior: Iterable) -> np.ndarray:
    """Interior as a vertex mask, after the domain checks."""
    names = [str(v) for v in interior]
    if not names:
        raise EmptyInteriorError("interior vertex set is empty")
    for v in names:  # the first unknown vertex in the caller's order
        if v not in g:
            raise UnknownVertexError(f"interior vertex {v!r} not in graph", vertex=v)
    aset = set(names)
    if len(aset) == g.n:
        raise InteriorIsWholeGraphError(
            "interior equals the whole vertex set; no boundary exists"
        )
    inside = np.zeros(g.n, dtype=bool)
    inside[[g.index(v) for v in aset]] = True
    return inside


def _boundary_mask(g: WeightedGraph, inside: np.ndarray) -> np.ndarray:
    touched = np.zeros(g.n, dtype=bool)
    touched[g.indices[inside[g.rows]]] = True
    return touched & ~inside


def vertex_boundary(g: WeightedGraph, interior: Iterable) -> tuple[str, ...]:
    """Vertices outside the interior with a positive-weight edge into it."""
    boundary = _boundary_mask(g, _check_interior(g, interior))
    return tuple(g.vertices[i] for i in np.flatnonzero(boundary).tolist())


def closure_subgraph(g: WeightedGraph, interior: Iterable, m: Measure) -> SubgraphClosure:
    """Closure of an interior set: induced graph with boundary-boundary
    weights removed, plus the measure restricted to the closure.

    Raises ``DisconnectedClosureError`` if the induced graph is not
    connected; the boundary-value machinery assumes it is.
    """
    inside = _check_interior(g, interior)
    closure = np.concatenate((np.flatnonzero(inside), np.flatnonzero(_boundary_mask(g, inside))))
    names = [g.vertices[i] for i in closure.tolist()]  # the interior first
    k = int(np.count_nonzero(inside))

    # any positive edge with one endpoint interior has its other endpoint in
    # the closure by definition of the vertex boundary; the kept edges go in
    # the ambient (i, j) order, so the closure degrees round as before
    rows, cols = g.rows, g.indices
    kept = (rows < cols) & (inside[rows] | inside[cols])
    at = np.zeros(g.n, dtype=np.intp)  # closure index of each ambient vertex
    at[closure] = np.arange(len(closure))
    induced = WeightedGraph.from_arrays(names, at[rows[kept]], at[cols[kept]], g.data[kept])
    if not is_connected(induced):
        raise DisconnectedClosureError(
            "closure graph is disconnected (boundary-boundary edges removed)",
            interior=names[:k], boundary=names[k:],
        )
    try:
        m_closure = m.restrict(names)
    except UnknownVertexError as e:
        raise DomainMismatchError(
            "measure is not defined on the whole closure", cause=str(e)
        ) from e
    return SubgraphClosure(induced, k, m_closure)
