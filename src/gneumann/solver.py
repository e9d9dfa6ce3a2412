"""Neumann problem solvers.

The problem (``graphs.NeumannProblem``): on a graph with a designated
boundary set carrying its own finite measure mu, find u with vanishing
Laplacian off the boundary and m * (Laplacian u) = phi * mu on it.
Solvable exactly when phi is centered against mu; the solution is unique
once centered in the ambient measure m.  The vertex-boundary problem of
a closure (``SubgraphClosure``) is its case mu = m on the vertex boundary.

Three analytic routes (direct augmented solve, Green-kernel summation,
truncated heat-semigroup time integral) take either problem.  One
problem check serves every route, ``verify_solution`` and the Monte
Carlo estimator, and one residual routine the first two.  The residuals
apply L through the CSR arrays, O(nnz); only the direct LU is dense
(numpy's, filled from them).  The Green and heat routes sum over the
modes of a ``Spectrum`` when given one, and otherwise apply their
function of the Laplacian to the boundary load by Lanczos
(``spectral.krylov_apply``), with no n x n array.  All routes return the
same centered solution up to numerical tolerance, which the test suites
exploit as a cross-check.
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
from .forms import VertexFunction, _as_function, _laplacian
from .graphs import Measure, NeumannProblem, WeightedGraph, is_connected
from .spectral import (
    Spectrum,
    _time_integral,
    check_spectrum_matches,
    heat_time_integral,
    krylov_apply,
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
# the heat route's mixing bound |p_t(x,y) - 1/m(X)| <= c1 e^{-c2 t} holds from t = _T0 on
_T0 = 1e-9
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
        if not self.values.vertices:
            raise DomainMismatchError("boundary data is empty")
        if self.values.domain != self.measure.domain:
            raise DomainMismatchError(
                "boundary values and boundary measure live on different sets",
                values_on=sorted(self.values.domain),
                measure_on=sorted(self.measure.domain),
            )

    @classmethod
    def for_closure(cls, sub: NeumannProblem, values) -> "BoundaryData":
        """Wrap plain boundary values with the problem's boundary measure."""
        return cls(values=_as_function(values), measure=sub.boundary_measure())

    def project_centered(self) -> tuple["BoundaryData", float]:
        """Subtract the measure-weighted mean; returns (projected, shift)."""
        shift = check_compatibility(self) / self.measure.total
        values = VertexFunction.from_vector(self.values.vertices, self.values.array - shift)
        return BoundaryData(values=values, measure=self.measure), shift


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
    return sum((phi.values.array * phi.measure.to_vector(phi.values.vertices)).tolist())


def is_compatible(phi: BoundaryData, rtol: float = COMPATIBILITY_RTOL) -> bool:
    total = check_compatibility(phi)
    mass = sum((np.abs(phi.values.array) * phi.measure.to_vector(phi.values.vertices)).tolist())
    return abs(total) <= rtol * max(1.0, mass)


def _residuals(g: WeightedGraph, mv: np.ndarray, bidx: np.ndarray, flux: np.ndarray,
               muv: np.ndarray, uvec: np.ndarray) -> tuple:
    """Largest Laplacian residual |Lu| / m off the boundary, largest
    weak-identity mismatch |(Lu)(y) - phi(y) mu(y)| / mu(y) on it, the
    centering total, and these residuals row by row with the weight (m or
    mu) each row is divided by."""
    r = _laplacian(g, uvec)
    r[bidx] -= flux * muv
    w = mv.copy()
    w[bidx] = muv
    rel = np.abs(r) / w
    off = np.ones(g.n, dtype=bool)
    off[bidx] = False
    return float(np.max(rel[off], initial=0.0)), float(np.max(rel[bidx])), float(uvec @ mv), rel, w


def _problem(sub: NeumannProblem, phi, centered: bool = True) -> tuple:
    """The checked problem as the arguments of ``_residuals`` before the
    solution: (g, m, boundary indices, phi, mu), the last four as vectors.

    The one boundary-data check of every route and of the Monte Carlo
    estimator: the boundary must be a non-empty set of vertices of the
    graph, phi (a ``BoundaryData``, a ``VertexFunction`` or a mapping)
    must be defined exactly on it, a ``BoundaryData`` must carry mu, phi
    must be finite and, unless ``centered`` is false, centered against mu.
    """
    g, boundary, mu = sub.graph, sub.boundary, sub.boundary_measure()
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
    if isinstance(phi, BoundaryData) and phi.measure != mu:
        raise DomainMismatchError("boundary data carries a different measure than mu")
    flux = values.to_vector(boundary)
    k = int(np.argmin(np.isfinite(flux)))
    if not math.isfinite(flux[k]):
        raise IncompatibleDataError(
            f"boundary data must be finite, got phi({boundary[k]!r}) = {flux[k]}",
            vertex=boundary[k], value=float(flux[k]))
    if centered and not is_compatible(data := BoundaryData(values=values, measure=mu)):
        raise IncompatibleDataError(
            "boundary data is not centered against the boundary measure; no solution exists",
            compatibility_sum=check_compatibility(data))
    bidx = np.array([g.index(y) for y in boundary], dtype=np.intp)
    return g, sub.measure.to_vector(g.vertices), bidx, flux, mu._at(boundary)


def _finish(problem: tuple, uvec, method, horizon=None, slack=0.0) -> NeumannSolution:
    """The solution and its residuals, once it passes the residual gate
    every route shares.

    Each row is judged against the data, whose load phi * mu makes Lu / m
    of size |phi| mu / m on the boundary, and against the rounding floor
    of its own residual: (row length + 2) eps times the row products
    |L| |u|, which bounds the rounding of the CSR row sum
    sum_y w(x,y) (u(x) - u(y)): each term passes through at most row length
    + 1 roundings of eps / 2, and |u(x) - u(y)| <= |u(x)| + |u(y)|.
    ``slack`` is the residual Lu / m - f a route admits by construction
    (the heat route's truncated tail), so a row divided by w admits
    ``slack * m / w``.  A row beyond both raises
    ``IllConditionedError``, as does a non-finite u, residual, rounding
    floor or tolerance, whose error names the first such quantity and its
    first row, and a non-finite centering total.
    """
    g, mv, bidx, flux, muv = problem
    res_int, res_bd, centering, rel, w = _residuals(*problem, uvec)
    au = np.abs(uvec)
    row_abs = g.deg * au + np.bincount(g.rows, weights=g.data * au[g.indices], minlength=g.n)
    floor = (np.diff(g.indptr) + 2) * np.finfo(float).eps * row_abs / w
    scale = max(1.0, float(np.max(np.abs(flux) * np.maximum(1.0, muv / mv[bidx]))))
    tol = np.maximum(RESIDUAL_RTOL * scale, floor) + slack * mv / w
    for what, a in (("u", uvec), ("residual", rel), ("rounding floor", floor), ("tolerance", tol)):
        k = int(np.argmin(np.isfinite(a)))
        if not math.isfinite(a[k]):
            raise IllConditionedError(
                f"{method} solve: the {what} at vertex {g.vertices[k]!r} is not finite: "
                "ill-conditioned",
                vertex=g.vertices[k], not_finite=what, residual=float(rel[k]),
                tolerance=float(tol[k]))
    k = int(np.argmax(rel / tol))
    if rel[k] > tol[k]:
        raise IllConditionedError(
            f"{method} solve residual exceeds its tolerance: ill-conditioned",
            vertex=g.vertices[k], residual=float(rel[k]), tolerance=float(tol[k]))
    if not math.isfinite(centering):
        raise IllConditionedError(
            f"{method} solve: the centering total u . m is {centering}, not finite: "
            "ill-conditioned", centering=centering)
    return NeumannSolution(
        u=VertexFunction.from_vector(g.vertices, uvec),
        method=method,
        residual_interior=res_int,
        residual_boundary=res_bd,
        centering=centering,
        truncation_horizon=horizon,
    )


def _load(problem: tuple) -> np.ndarray:
    """The boundary load phi * mu extended by zero, in vertex order."""
    g, _, bidx, flux, muv = problem
    b = np.zeros(g.n)
    b[bidx] = flux * muv
    return b


def solve_green(sub: NeumannProblem, phi, spec: Spectrum | None = None) -> NeumannSolution:
    """Green-kernel route: u(x) = sum over boundary y of
    phi(y) g(x,y) mu(y); centered automatically since the kernel rows
    integrate to zero.  With ``spec`` the kernel's spectral sum is taken
    mode by mode against the boundary load, O(n |B|) work with no n x n
    kernel formed; without, Lanczos applies 1/z to the load."""
    problem = _problem(sub, phi)
    if spec is None:
        uvec, _ = krylov_apply(sub.graph, sub.measure, _load(problem), lambda z, gap: 1.0 / z)
        return _finish(problem, uvec, "green")
    check_spectrum_matches(spec, sub.graph, sub.measure)
    _, _, bidx, flux, muv = problem
    psi = spec.basis[:, 1:]
    uvec = psi @ ((psi[bidx].T @ (flux * muv)) / spec.eigenvalues[1:])
    return _finish(problem, uvec, "green")


def solve_heat_integral(sub: NeumannProblem, phi, spec: Spectrum | None = None,
                        tol: float = 1e-10) -> NeumannSolution:
    """Heat-semigroup route: the time integral of the heat semigroup
    applied to the boundary data, up to a horizon T, then recentered.

    T is chosen from the mixing bound |p_t(x,y) - 1/m(X)| <= c1 e^{-c2 t}
    so the neglected tail is below ``tol`` in sup norm.  The source is
    phi * mu / m on the boundary.  With ``spec``, c1 and c2 are its
    ``mixing_constants`` and the integral is summed over its modes.
    Without, Lanczos integrates the load, c2 is its lower bound on the
    spectral gap, and c1 = e^{c2 t0} max_x (1/m(x) - 1/m(X)) bounds the
    eigen-expansion value from above, since the squares of the
    eigenfunctions at x sum to 1/m(x) over all modes.
    """
    problem = _problem(sub, phi)
    if spec is not None:
        check_spectrum_matches(spec, sub.graph, sub.measure)
    if not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
        raise NonpositiveToleranceError(f"tolerance must be positive and finite, got {tol}")

    g, mv, bidx, flux, muv = problem
    mass = sum(abs(f) * w for f, w in zip(flux.tolist(), muv.tolist()))
    if not math.isfinite(mass):
        raise IllConditionedError(
            f"heat-integral solve: the data's mass sum |phi| mu is {mass}, not finite", mass=mass)
    if mass == 0.0:
        return _finish(problem, np.zeros(g.n), "heat-integral", horizon=0.0)

    def horizon(c1: float, c2: float) -> float:
        # tail of the time integral beyond T is bounded by c1 * mass * e^{-c2 T} / c2;
        # a ratio that underflows to 0 needs no time, one that overflows none finite
        scale = c2 * tol
        ratio = c1 * mass / scale if scale > 0.0 else math.inf
        return max(math.log(ratio) / c2, 1e-6) if ratio != 0.0 else 1e-6

    if spec is None:
        spread = float(np.max(1.0 / mv)) - 1.0 / sub.measure.total

        def bound(c2: float) -> float:  # c1, inf once e^{c2 t0} overflows
            return spread * math.exp(c2 * _T0) if c2 * _T0 < 700.0 else math.inf

        uvec, c2 = krylov_apply(g, sub.measure, _load(problem),
                                lambda z, gap: _time_integral(z, horizon(bound(gap), gap)))
        if c2 == math.inf:  # the load has no part off the constants: u = 0
            return _finish(problem, uvec, "heat-integral", horizon=0.0)
        c1 = bound(c2)
    else:
        c1, c2 = mixing_constants(spec, _T0)
    T = horizon(c1, c2)
    if not math.isfinite(T):
        raise IllConditionedError(
            f"heat-integral solve: the horizon is {T}, not finite", c1=c1, gap=c2)
    if spec is not None:
        # phi * mu / m extended by zero, as dictated by the boundary sum; the
        # ratio is 1.0 where mu = m, so a closure's source is phi bit for bit
        fvec = np.zeros(g.n)
        fvec[bidx] = flux * (muv / mv[bidx])
        uvec = heat_time_integral(spec, fvec, T).to_vector(g.vertices)
    uvec -= (uvec @ mv) / sub.measure.total
    # the residual Lu / m - f is the semigroup at T applied to f, which the
    # mixing bound caps at c1 * mass * e^{-c2 T}
    return _finish(problem, uvec, "heat-integral", horizon=T,
                   slack=c1 * mass * math.exp(-c2 * T))


def solve_direct(sub: NeumannProblem, phi) -> NeumannSolution:
    """Direct route: the centered u with vanishing Laplacian off the
    boundary and m(y) * (Laplacian u)(y) = phi(y) mu(y) on it, i.e. the
    weak identity Q(u, v) = sum phi v dmu specialized to indicators.  The
    dense LU is numpy's (LAPACK ``dgesv``); the residual gate judges a
    near-singular system.
    """
    problem = _problem(sub, phi)
    g, mv, bidx, flux, muv = problem
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")

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


def solve_boundary_measure(g: WeightedGraph, boundary, m: Measure, mu: Measure, phi) -> NeumannSolution:
    """``solve_direct`` on the problem of graph g with measure m and the
    designated boundary set carrying its own finite measure mu."""
    return solve_direct(NeumannProblem(g, boundary, m, mu), phi)


def verify_solution(sub: NeumannProblem, sol: NeumannSolution, phi, tol: float = 1e-9) -> SolutionReport:
    """Recompute the residuals of a claimed solution from scratch.

    Returns the interior Laplacian residual, the boundary mismatch, and
    the centering total, with a pass/fail verdict against ``tol``; data
    that is not centered gets a report too.
    """
    problem = _problem(sub, phi, centered=False)
    res_int, res_bd, centering, _, _ = _residuals(*problem, sol.u.to_vector(sub.graph.vertices))
    passed = res_int <= tol and res_bd <= tol and abs(centering) <= tol * max(1.0, sub.measure.total)
    return SolutionReport(
        residual_interior=res_int,
        residual_boundary=res_bd,
        centering=centering,
        tolerance=tol,
        passed=passed,
    )
