"""Neumann problem solvers on subgraph closures.

The problem: find u with vanishing Laplacian on the interior whose
boundary normal derivative matches prescribed data phi.  Solvable exactly
when phi is centered against the boundary measure; the solution is unique
once centered in the ambient measure.

Three analytic routes are provided (direct augmented solve, Green-kernel
summation, truncated heat-semigroup time integral) plus a variant where
the boundary is any designated vertex set carrying its own finite measure
mu.  The variant is the core: the direct vertex-boundary route is the
boundary-measure solve on the closure graph with mu = m restricted to
the vertex boundary, and one problem check and one residual routine
serve every route and ``verify_solution``.  The linear algebra is dense
and numpy's alone, on the Laplacian filled from the graph's CSR arrays.
All routes return the same centered solution up to numerical tolerance,
which the test suites exploit as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedError,
    DomainMismatchError,
    IllConditionedError,
    IncompatibleDataError,
    NonpositiveToleranceError,
)
from .forms import VertexFunction, _as_function
from .graphs import Measure, SubgraphClosure, WeightedGraph, is_connected
from .spectral import (
    Spectrum,
    check_spectrum_matches,
    heat_time_integral,
    mixing_constants,
)

__all__ = [
    "BoundaryData",
    "NeumannSolution",
    "SolutionReport",
    "check_compatibility",
    "is_compatible",
    "solve_direct",
    "solve_green",
    "solve_heat_integral",
    "solve_boundary_measure",
    "verify_solution",
]

# relative compatibility tolerance: |sum phi dmu| <= RTOL * max(1, sum |phi| dmu)
COMPATIBILITY_RTOL = 1e-10
# residual gate of every route: each row's residual <= RESIDUAL_RTOL * max(1, s),
# s the largest |phi| * max(1, mu/m) on the boundary, or else within the
# rounding floor of that row
RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values paired with the measure used for the centering test."""

    values: VertexFunction
    measure: Measure

    def __post_init__(self):
        if not self.values.values:
            raise DomainMismatchError("boundary data is empty")
        if self.values.domain != self.measure.domain:
            raise DomainMismatchError(
                "boundary values and boundary measure live on different sets",
                values_on=sorted(self.values.domain),
                measure_on=sorted(self.measure.domain),
            )

    @property
    def boundary(self) -> frozenset[str]:
        return self.values.domain

    @classmethod
    def for_closure(cls, sub: SubgraphClosure, values) -> "BoundaryData":
        """Wrap plain boundary values with the closure's boundary measure."""
        if not isinstance(values, VertexFunction):
            values = VertexFunction(dict(values))
        return cls(values=values, measure=sub.boundary_measure())

    def project_centered(self) -> tuple["BoundaryData", float]:
        """Subtract the measure-weighted mean; returns (projected, shift)."""
        shift = check_compatibility(self) / self.measure.total
        vals = {x: v - shift for x, v in self.values.values.items()}
        return BoundaryData(values=VertexFunction(vals), measure=self.measure), shift


@dataclass(frozen=True)
class NeumannSolution:
    """Centered solution with residual diagnostics computed at solve time."""

    u: VertexFunction
    method: str  # direct | green | heat-integral | monte-carlo
    residual_interior: float
    residual_boundary: float
    centering: float
    truncation_horizon: float | None = None


@dataclass(frozen=True)
class SolutionReport:
    residual_interior: float
    residual_boundary: float
    centering: float
    tolerance: float
    passed: bool


def check_compatibility(phi: BoundaryData) -> float:
    """Signed total of the boundary data against its measure.

    The solvability predicate is |result| small relative to the total
    absolute mass of the data.
    """
    return sum(v * phi.measure[x] for x, v in phi.values.values.items())


def is_compatible(phi: BoundaryData, rtol: float = COMPATIBILITY_RTOL) -> bool:
    total = check_compatibility(phi)
    mass = sum(abs(v) * phi.measure[x] for x, v in phi.values.values.items())
    return abs(total) <= rtol * max(1.0, mass)


def _require_compatible(phi: BoundaryData) -> None:
    if not is_compatible(phi):
        raise IncompatibleDataError(
            "boundary data is not centered against the boundary measure; "
            "no solution exists",
            compatibility_sum=check_compatibility(phi),
        )


def _residuals(g: WeightedGraph, mv: np.ndarray, bidx: np.ndarray, flux: np.ndarray,
               muv: np.ndarray, uvec: np.ndarray) -> tuple:
    """Largest Laplacian residual |Lu| / m off the boundary, largest
    weak-identity mismatch |(Lu)(y) - phi(y) mu(y)| / mu(y) on it, the
    centering total, and these residuals row by row with the weight (m or
    mu) each row is divided by."""
    r = g.laplacian_matrix @ uvec
    r[bidx] -= flux * muv
    w = mv.copy()
    w[bidx] = muv
    rel = np.abs(r) / w
    off = np.ones(g.n, dtype=bool)
    off[bidx] = False
    return float(np.max(rel[off], initial=0.0)), float(np.max(rel[bidx])), float(uvec @ mv), rel, w


def _boundary_values(g: WeightedGraph, boundary,
                     phi) -> tuple[tuple[str, ...], VertexFunction, np.ndarray]:
    """The designated boundary, the data on it and its indices in g.

    The boundary must be a non-empty set of vertices of g, and phi (a
    ``BoundaryData``, a ``VertexFunction`` or a mapping) must be defined
    exactly on it.  ``_problem`` and the Monte Carlo estimator both check
    their boundary data here.
    """
    boundary = tuple(str(v) for v in boundary)
    if not boundary:
        raise DomainMismatchError("designated boundary set is empty")
    for y in boundary:
        if y not in g:
            raise DomainMismatchError(f"boundary vertex {y!r} not in graph", vertex=y)
    values = _as_function(phi.values if isinstance(phi, BoundaryData) else phi)
    if values.domain != frozenset(boundary):
        raise DomainMismatchError(
            "boundary data is not defined exactly on the designated boundary",
            expected=sorted(boundary),
            got=sorted(values.domain),
        )
    return boundary, values, np.array([g.index(y) for y in boundary], dtype=np.intp)


def _problem(g: WeightedGraph, boundary, m: Measure, mu: Measure, phi,
             centered: bool = True) -> tuple:
    """The checked problem as the arguments of ``_residuals`` before the
    solution: (g, m, boundary indices, phi, mu), the last four as vectors.

    The one boundary-data check of every route: ``_boundary_values``,
    then the measure a ``BoundaryData`` carries must be mu, and, unless
    ``centered`` is false, phi must be centered against mu.
    """
    boundary, values, bidx = _boundary_values(g, boundary, phi)
    if isinstance(phi, BoundaryData) and phi.measure != mu:
        raise DomainMismatchError("boundary data carries a different measure than mu")
    if centered:
        _require_compatible(BoundaryData(values=values, measure=mu))
    return g, m.to_vector(g.vertices), bidx, values.to_vector(boundary), mu.to_vector(boundary)


def _finish(problem: tuple, uvec, method, horizon=None, slack=0.0) -> NeumannSolution:
    """The solution and its residuals, once it passes the residual gate
    every route shares.

    Each row is judged against the data, whose load phi * mu makes Lu / m
    of size |phi| mu / m on the boundary, and against the rounding floor
    of its own residual: (row length + 2) eps times the row products
    |L| |u|.  ``slack`` is the residual a route admits by construction
    (the heat route's truncated tail).  A row beyond both raises
    ``IllConditionedError``, as does a non-finite u, residual or tolerance.
    """
    g, mv, bidx, flux, muv = problem
    res_int, res_bd, centering, rel, w = _residuals(*problem, uvec)
    au = np.abs(uvec)
    row_abs = g.deg * au + np.bincount(g.rows, weights=g.data * au[g.indices], minlength=g.n)
    floor = (np.diff(g.indptr) + 2) * np.finfo(float).eps * row_abs / w
    scale = max(1.0, float(np.max(np.abs(flux) * np.maximum(1.0, muv / mv[bidx]))))
    tol = np.maximum(RESIDUAL_RTOL * scale, floor) + slack
    finite = np.isfinite(uvec) & np.isfinite(rel) & np.isfinite(tol)
    k = int(np.argmax(rel / tol)) if finite.all() else int(np.argmin(finite))
    if not (finite[k] and rel[k] <= tol[k] and math.isfinite(centering)):
        raise IllConditionedError(
            f"{method} solve residual is not finite or exceeds its tolerance: ill-conditioned",
            vertex=g.vertices[k],
            residual=float(rel[k]),
            tolerance=float(tol[k]),
        )
    return NeumannSolution(
        u=VertexFunction.from_vector(g.vertices, uvec),
        method=method,
        residual_interior=res_int,
        residual_boundary=res_bd,
        centering=centering,
        truncation_horizon=horizon,
    )


def solve_direct(sub: SubgraphClosure, phi) -> NeumannSolution:
    """Direct route: the boundary-measure solve on the closure graph with
    mu the ambient measure restricted to the vertex boundary."""
    return solve_boundary_measure(sub.graph, sub.boundary, sub.measure, sub.boundary_measure(), phi)


def solve_green(sub: SubgraphClosure, phi, spec: Spectrum) -> NeumannSolution:
    """Green-kernel route: u(x) = sum over boundary y of
    phi(y) g(x,y) m(y); centered automatically since the kernel rows
    integrate to zero.  The kernel's spectral sum is taken mode by mode
    against the boundary load, O(n |B|) work with no n x n kernel formed."""
    problem = _problem(sub.graph, sub.boundary, sub.measure, sub.boundary_measure(), phi)
    check_spectrum_matches(spec, sub.graph, sub.measure)
    _, _, bidx, flux, muv = problem
    psi = spec.basis[:, 1:]
    uvec = psi @ ((psi[bidx].T @ (flux * muv)) / spec.eigenvalues[1:])
    return _finish(problem, uvec, "green")


def solve_heat_integral(sub: SubgraphClosure, phi, spec: Spectrum, tol: float) -> NeumannSolution:
    """Heat-semigroup route: the time integral of the heat semigroup
    applied to the boundary data, up to a horizon T, then recentered.

    T is chosen from the mixing bound so the neglected tail is below
    ``tol`` in sup norm.
    """
    problem = _problem(sub.graph, sub.boundary, sub.measure, sub.boundary_measure(), phi)
    check_spectrum_matches(spec, sub.graph, sub.measure)
    if not (isinstance(tol, (int, float)) and tol > 0):
        raise NonpositiveToleranceError(f"tolerance must be positive, got {tol}")

    g, mv, bidx, flux, muv = problem
    mass = sum(abs(f) * w for f, w in zip(flux.tolist(), muv.tolist()))
    if mass == 0.0:
        return _finish(problem, np.zeros(g.n), "heat-integral", horizon=0.0)

    c1, c2 = mixing_constants(spec, 1e-9)
    # tail of the time integral beyond T is bounded by c1 * mass * e^{-c2 T} / c2
    T = math.log(c1 * mass / (c2 * tol)) / c2
    T = max(T, 1e-6)

    # phi extended by zero to the closure, as dictated by the boundary sum
    fvec = np.zeros(g.n)
    fvec[bidx] = flux
    uvec = heat_time_integral(spec, fvec, T).to_vector(sub.closure)
    uvec -= (uvec @ mv) / sub.measure.total
    # the residual Lu / m - f is the semigroup at T applied to f, which the
    # mixing bound caps at c1 * mass * e^{-c2 T}
    return _finish(problem, uvec, "heat-integral", horizon=T,
                   slack=c1 * mass * math.exp(-c2 * T))


def solve_boundary_measure(g: WeightedGraph, boundary, m: Measure, mu: Measure, phi) -> NeumannSolution:
    """Neumann problem for a designated boundary set carrying its own
    finite measure mu, on the whole graph.

    The solution is the centered u with vanishing Laplacian off the
    boundary and m(y) * (Laplacian u)(y) = phi(y) mu(y) on it, i.e. the
    weak identity Q(u, v) = sum phi v dmu specialized to indicators.
    Compatibility is centering against mu.  The vertex-boundary problem
    of a closure is the case of the closure graph with mu the ambient
    measure restricted to the vertex boundary, which is how
    ``solve_direct`` calls it.  The dense LU is numpy's (LAPACK
    ``dgesv``); the residual gate judges a near-singular system.
    """
    problem = _problem(g, boundary, m, mu, phi)
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")

    _, mv, bidx, flux, muv = problem
    # the singular symmetric system with the centering row appended as a
    # Lagrange constraint; its solution is the centered u
    n = g.n
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = g.laplacian_matrix
    K[:n, n] = K[n, :n] = mv
    b = np.zeros(n + 1)
    b[bidx] = flux * muv
    uvec = np.linalg.solve(K, b)[:n]
    return _finish(problem, uvec, "direct")


def verify_solution(sub: SubgraphClosure, sol: NeumannSolution, phi, tol: float = 1e-9) -> SolutionReport:
    """Recompute the residuals of a claimed solution from scratch.

    Returns the interior Laplacian residual, the boundary mismatch, and
    the centering total, with a pass/fail verdict against ``tol``; data
    that is not centered gets a report too.
    """
    problem = _problem(sub.graph, sub.boundary, sub.measure, sub.boundary_measure(), phi,
                       centered=False)
    res_int, res_bd, centering, _, _ = _residuals(*problem, sol.u.to_vector(sub.closure))
    passed = res_int <= tol and res_bd <= tol and abs(centering) <= tol * max(1.0, sub.measure.total)
    return SolutionReport(
        residual_interior=res_int,
        residual_boundary=res_bd,
        centering=centering,
        tolerance=tol,
        passed=passed,
    )
