"""Energy form, graph Laplacians, and the boundary normal derivative.

Each form is one array expression over the graph's CSR arrays (every
edge stored in both directions, so sums over stored entries count each
unordered pair twice); no thresholding of small weights.  Functions
defined on the wrong vertex set are a hard error, never zero-extended.
"""

from __future__ import annotations

import numpy as np

from .graphs import Measure, SubgraphClosure, WeightedGraph, _VertexValues

__all__ = [
    "VertexFunction",
    "energy",
    "energy_bilinear",
    "formal_laplacian",
    "interior_laplacian",
    "normal_derivative",
    "markov_contraction",
]


class VertexFunction(_VertexValues):
    """Real-valued function on a stated vertex set; a lookup outside it
    raises ``KeyError``."""

    _mismatch = "function domain does not match the expected vertex set"


def _as_function(f) -> VertexFunction:
    if isinstance(f, VertexFunction):
        return f
    return VertexFunction(dict(f))


def _laplacian(g: WeightedGraph, fv: np.ndarray) -> np.ndarray:
    """sum_y b(x,y) (f(x) - f(y)) at every vertex x, of a vector f or of
    each column of a matrix f (O(nnz) per column, with the vector's bits);
    exactly zero on constants."""
    if fv.ndim == 2:
        return np.stack([_laplacian(g, f) for f in fv.T], axis=1)
    terms = g.data * (fv[g.rows] - fv[g.indices])
    return np.bincount(g.rows, weights=terms, minlength=g.n).astype(float, copy=False)


def energy(g: WeightedGraph, u) -> float:
    """Dirichlet energy: half the weighted sum of squared differences
    over all ordered vertex pairs."""
    return energy_bilinear(g, u, u)


def energy_bilinear(g: WeightedGraph, u, v) -> float:
    """Polarized energy form; symmetric."""
    uv = _as_function(u).to_vector(g.vertices)
    vv = _as_function(v).to_vector(g.vertices)
    du = uv[g.rows] - uv[g.indices]
    dv = vv[g.rows] - vv[g.indices]
    return 0.5 * float(np.sum(g.data * (du * dv)))


def formal_laplacian(g: WeightedGraph, m: Measure, f) -> VertexFunction:
    """Measure-normalized graph Laplacian applied pointwise:
    (1/m(x)) * sum_y b(x,y) (f(x) - f(y))."""
    fv = _as_function(f).to_vector(g.vertices)
    return VertexFunction.from_vector(g.vertices, _laplacian(g, fv) / m.to_vector(g.vertices))


def interior_laplacian(sub: SubgraphClosure, f) -> VertexFunction:
    """Laplacian on the closure graph, forced to zero on the boundary."""
    g = sub.graph
    out = _laplacian(g, _as_function(f).to_vector(g.vertices)) / sub.measure_vector
    out[sub.boundary_index] = 0.0
    return VertexFunction.from_vector(g.vertices, out)


def normal_derivative(sub: SubgraphClosure, u) -> VertexFunction:
    """Pointwise normal derivative on the boundary:
    (1/m(x)) * sum_{y interior} b(x,y) (u(x) - u(y)).

    On the closure graph the sum over interior neighbors equals the sum
    over all neighbors, since boundary-boundary weights vanish.
    """
    g = sub.graph
    b = sub.boundary_index
    lap = _laplacian(g, _as_function(u).to_vector(g.vertices))
    return VertexFunction.from_vector(sub.boundary, lap[b] / sub.measure_vector[b])


def markov_contraction(u) -> VertexFunction:
    """Pointwise clamp to [0, 1]; never increases the energy."""
    f = _as_function(u)
    a = np.where(f.array > 0.0, f.array, 0.0)  # max(0.0, v), then min(1.0, .)
    return VertexFunction.from_vector(f.vertices, np.where(a < 1.0, a, 1.0))
