"""Neumann problem solvers.

The problem (``graphs.NeumannProblem``): on a graph with a designated
boundary set carrying its own finite measure mu, find u with vanishing
Laplacian off the boundary and m * (Laplacian u) = phi * mu on it.
Solvable exactly when phi is centered against mu; the solution is unique
once centered in the ambient measure m.  The vertex-boundary problem of
a closure (``SubgraphClosure``) is its case mu = m on the vertex boundary.

Three analytic routes (direct linear solve, Green-kernel summation,
truncated heat-semigroup time integral) take either problem.  One
problem check serves every route, ``verify_solution`` and the Monte
Carlo estimator, and one residual routine the first two.  The residuals
apply L through the CSR arrays, O(nnz).  The direct route solves by
Jacobi-preconditioned conjugate gradients on those arrays above
``DENSE_MAX_N`` vertices, and by numpy's dense LU of the augmented
system, filled from them, up to that size or when CG fails.  The Green
and heat routes have one body each, which applies their function of the
Laplacian to the boundary load by the one step ``spectral._apply``: by
Lanczos, with no n x n array, or over the modes of a given ``Spectrum``,
its exact basis.  All routes return the same centered solution up to
numerical tolerance, which the test suites exploit as a cross-check.
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
from .spectral import Spectrum, _apply, _time_integral, check_spectrum_matches

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
# the heat route's mixing bound |p_t(x,y) - 1/m(X)| <= c1 e^{-c2 t} is taken from
# t0 = min(_T0, 1/c2) on, so that c1's factor e^{c2 t0} is at most e and never overflows
_T0 = 1e-9
# residual gate of every route: each row's residual <= RESIDUAL_RTOL * max(1, s),
# s the largest |phi| * max(1, mu/m) on the boundary, or else within the
# rounding floor of that row
RESIDUAL_RTOL = 1e-6
# the direct route's dense LU serves graphs of up to this many vertices (at
# 1024 it takes about 26 ms and its system is 8 MB); above, conjugate
# gradients, with the LU as fallback
DENSE_MAX_N = 1024
# conjugate gradients stop once ||b - L u||_2 <= CG_RTOL * ||b||_2, and give up
# after _CG_STALL steps that do not halve the best residual norm
CG_RTOL = 1e-14
_CG_STALL = 512


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


def _problem(sub: NeumannProblem, phi, centered: bool = True, spec: Spectrum | None = None) -> tuple:
    """The checked problem as the arguments of ``_residuals`` before the
    solution: (g, m, boundary indices, phi, mu), the last four as vectors.

    The one boundary-data check of every route and of the Monte Carlo
    estimator: the boundary must be a non-empty set of vertices of the
    graph, phi (a ``BoundaryData``, a ``VertexFunction`` or a mapping)
    must be defined exactly on it, a ``BoundaryData`` must carry mu, phi
    must be finite and, unless ``centered`` is false, centered against mu.
    A ``spec`` given must then be the spectrum of g and m.
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
    if spec is not None:
        check_spectrum_matches(spec, g, sub.measure)
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


def _mixing_c1(mv: np.ndarray, total: float, gap: float, t0: float = _T0) -> float:
    """c1 of the mixing bound |p_t(x,y) - 1/m(X)| <= c1 e^{-gap t} from t =
    min(t0, 1/gap) on: e^{gap t} max_x (1/m(x) - 1/m(X)), above the
    eigen-expansion value of ``spectral.mixing_constants``, since the
    squares of the eigenfunctions at x sum to 1/m(x) over all modes."""
    return (float(np.max(1.0 / mv)) - 1.0 / total) * math.exp(gap * min(t0, 1.0 / gap))


def solve_green(sub: NeumannProblem, phi, spec: Spectrum | None = None) -> NeumannSolution:
    """Green-kernel route: u(x) = sum over boundary y of
    phi(y) g(x,y) mu(y); centered automatically since the kernel rows
    integrate to zero.  ``spectral._apply`` takes 1/z to the boundary
    load, by Lanczos or over the modes of ``spec``, with no kernel formed."""
    problem = _problem(sub, phi, spec=spec)
    uvec, _ = _apply(sub.graph, sub.measure, _load(problem), lambda z, gap: 1.0 / z, spec)
    return _finish(problem, uvec, "green")


def solve_heat_integral(sub: NeumannProblem, phi, spec: Spectrum | None = None,
                        tol: float = 1e-10) -> NeumannSolution:
    """Heat-semigroup route: the time integral of the heat semigroup
    applied to the boundary data, up to a horizon T, then recentered.

    The source is phi * mu / m on the boundary: ``spectral._apply`` takes
    each mode's weight (1 - e^{-z T}) / z to the boundary load.  T is chosen
    from the mixing bound |p_t(x,y) - 1/m(X)| <= c1 e^{-c2 t}, c2 the gap
    bound of ``_apply`` and c1 the one rule of ``_mixing_c1``, so that the
    neglected tail is below ``tol`` in sup norm.
    """
    problem = _problem(sub, phi, spec=spec)
    if not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
        raise NonpositiveToleranceError(f"tolerance must be positive and finite, got {tol}")

    g, mv, bidx, flux, muv = problem
    mass = sum(abs(f) * w for f, w in zip(flux.tolist(), muv.tolist()))
    if not math.isfinite(mass):
        raise IllConditionedError(
            f"heat-integral solve: the data's mass sum |phi| mu is {mass}, not finite", mass=mass)
    if mass == 0.0:
        return _finish(problem, np.zeros(g.n), "heat-integral", horizon=0.0)

    def horizon(c2: float) -> float:
        # tail of the time integral beyond T is bounded by c1 * mass * e^{-c2 T} / c2;
        # a ratio that underflows to 0 needs no time, one that overflows none finite
        scale = c2 * tol
        ratio = _mixing_c1(mv, sub.measure.total, c2) * mass / scale if scale > 0.0 else math.inf
        return max(math.log(ratio) / c2, 1e-6) if ratio != 0.0 else 1e-6

    uvec, c2 = _apply(sub.graph, sub.measure, _load(problem),
                      lambda z, gap: _time_integral(z, horizon(gap)), spec)
    if c2 == math.inf:  # the load has no part off the constants: u = 0
        return _finish(problem, uvec, "heat-integral", horizon=0.0)
    c1, T = _mixing_c1(mv, sub.measure.total, c2), horizon(c2)
    if not math.isfinite(T):
        raise IllConditionedError(
            f"heat-integral solve: the horizon is {T}, not finite", c1=c1, gap=c2)
    uvec -= (uvec @ mv) / sub.measure.total
    # the residual Lu / m - f is the semigroup at T applied to f, which the
    # mixing bound caps at c1 * mass * e^{-c2 T}
    return _finish(problem, uvec, "heat-integral", horizon=T,
                   slack=c1 * mass * math.exp(-c2 * T))


def _jacobi_cg(g: WeightedGraph, b: np.ndarray, steps: int) -> np.ndarray | None:
    """A u with L u = b by conjugate gradients from u = 0 with the Jacobi
    preconditioner 1 / deg, or None when the residual r = b - L u does not
    reach ||r|| <= CG_RTOL ||b|| within ``steps`` steps, when it stalls (its
    best ||r|| is not halved within ``_CG_STALL`` steps: data that L u = b
    cannot meet, or a spectrum CG cannot resolve) or when a step's p . L p
    (or r . r / deg) is not finite and positive.

    L applies through the CSR arrays and every reduction is an ``np.sum``
    of a product, not a BLAS product, so the bits do not depend on the
    number of CPUs.  b is scaled by a power of two to a largest entry in
    [0.5, 1), so that its norm neither overflows nor underflows, and u is
    scaled back.
    """
    top = float(np.max(np.abs(b)))
    if not math.isfinite(top):
        return None
    e = math.frexp(top)[1]
    r = np.ldexp(b, -e)
    u = np.zeros(g.n)
    stop = CG_RTOL * math.sqrt(float(np.sum(r * r)))
    with np.errstate(all="ignore"):  # a failed step shows as a non-finite p . L p
        inv = 1.0 / g.deg
        z = r * inv
        p = z
        rz = float(np.sum(r * z))
        best, since = math.inf, 0  # the residual norm last halved, and its step
        for k in range(steps + 1):
            norm = math.sqrt(float(np.sum(r * r)))
            if norm <= stop:
                return np.ldexp(u, e)
            if norm <= 0.5 * best:
                best, since = norm, k
            if k == steps or k - since >= _CG_STALL:
                break
            q = _laplacian(g, p)
            pq = float(np.sum(p * q))
            if not (0.0 < pq < math.inf and rz > 0.0):  # rz is 0 only if r / deg underflows
                break
            alpha = rz / pq
            u += alpha * p
            r -= alpha * q
            z = r * inv
            rz, rz_old = float(np.sum(r * z)), rz
            p = z + (rz / rz_old) * p
    return None


def solve_direct(sub: NeumannProblem, phi) -> NeumannSolution:
    """Direct route: the centered u with vanishing Laplacian off the
    boundary and m(y) * (Laplacian u)(y) = phi(y) mu(y) on it, i.e. the
    weak identity Q(u, v) = sum phi v dmu specialized to indicators.  The
    residual gate judges the result of either solver below.

    Above ``DENSE_MAX_N`` vertices, Jacobi-preconditioned conjugate
    gradients (``_jacobi_cg``, at most n steps, fewer if they stall) solve
    L u = phi * mu on the CSR arrays, then u is centered in m: O(nnz) a
    step, a few n-vectors of memory, and bits independent of the CPU count.
    Up to that size, and whenever CG fails, numpy's dense LU (LAPACK
    ``dgesv``) solves the (n+1) x (n+1) system of L with the centering row
    appended, filled straight from the CSR arrays, L into its top-left
    block by ``WeightedGraph.laplacian_into``: it holds that array and the
    LU's copy of it, about 2 (n+1)^2 doubles.
    """
    problem = _problem(sub, phi)
    g, mv = problem[:2]
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")

    n = g.n
    load = _load(problem)
    uvec = _jacobi_cg(g, load, n) if n > DENSE_MAX_N else None
    if uvec is not None:
        uvec -= float(np.sum(uvec * mv)) / float(np.sum(mv))
        return _finish(problem, uvec, "direct")
    # the singular symmetric system with the centering row appended as a
    # Lagrange constraint; its solution is the centered u
    K = np.zeros((n + 1, n + 1))
    g.laplacian_into(K[:n, :n])
    K[:n, n] = K[n, :n] = mv
    try:
        uvec = np.linalg.solve(K, np.append(load, 0.0))[:n]
    except np.linalg.LinAlgError as e:  # an exact zero pivot
        raise IllConditionedError(f"the dense LU failed: {e}") from e
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
