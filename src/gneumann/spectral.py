"""Eigendecomposition of the measure-weighted Laplacian and the kernels
built from it: heat kernel, Green kernel, contraction rate and mixing
constants.

The generalized eigenproblem in the m-weighted inner product is reduced
to an ordinary symmetric one through the diag(m)^{+-1/2} similarity, so a
single dense symmetric eigensolve covers everything.  Target sizes are
desk scale (up to a few thousand vertices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    DisconnectedError,
    DomainMismatchError,
    IllConditionedError,
    NonpositiveTimeError,
    SpectrumMismatchError,
)
from .forms import VertexFunction, _as_function
from .graphs import Measure, WeightedGraph, is_connected

__all__ = [
    "Spectrum",
    "KernelMatrix",
    "eigendecompose",
    "heat_kernel",
    "green_kernel",
    "mixing_constants",
    "rate_function",
    "heat_time_integral",
    "check_spectrum_matches",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full spectrum of the Laplacian, orthonormal in the m-weighted
    inner product.

    ``basis`` holds the eigenfunctions as columns in vertex order;
    eigenvalues are ascending, the first one (the constant mode) snapped
    to 0.0.  ``measure_vector`` is the measure in vertex order.  The
    arrays are read-only.
    """

    graph: WeightedGraph
    measure: Measure
    eigenvalues: np.ndarray
    basis: np.ndarray
    measure_vector: np.ndarray

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    @property
    def spectral_gap(self) -> float:
        """Smallest nonzero eigenvalue."""
        if len(self.eigenvalues) < 2:
            raise DisconnectedError("no nonzero eigenvalue: graph is a single point")
        return float(self.eigenvalues[1])


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Dense symmetric kernel indexed by the vertex order of its spectrum's
    graph."""

    graph: WeightedGraph
    entries: np.ndarray

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    def entry(self, x, y) -> float:
        return float(self.entries[self.graph.index(x), self.graph.index(y)])


def eigendecompose(g: WeightedGraph, m: Measure) -> Spectrum:
    """Diagonalize the Laplacian self-adjointly in the m-weighted inner
    product.

    Solves the ordinary symmetric problem for
    S = diag(m)^{-1/2} (diag(deg) - B) diag(m)^{-1/2} and maps
    eigenvectors back through diag(m)^{-1/2}, which keeps them
    orthonormal in the weighted inner product.  Eigenfunction signs are
    fixed so the first nonvanishing coordinate is positive.

    S is filled from the CSR arrays into one n x n buffer, not from the
    dense Laplacian: each entry repeats the operations of the dense
    expression on the same operands (both CSR copies of an edge hold its
    weight), so its bytes, overflows included, are the dense route's.

    The eigensolve is LAPACK's divide-and-conquer ``dsyevd`` (Gu &
    Eisenstat, 1995) through ``numpy.linalg.eigh``.  A connected graph has
    exactly one zero mode, so the smallest eigenvalue is set to 0.0; the
    spectrum is refused when the next one is below the eigensolver's
    backward error n * eps * lambda_max, where roundoff cannot tell it
    from zero, and when an eigenvalue is not finite, which an entry of S
    that overflows gives.
    """
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")
    mv = m.to_vector(g.vertices)
    inv = 1.0 / np.sqrt(mv)
    # entry (x, y) is 0.5 * (a_xy + a_yx), a_xy = (inv_x * -w_xy) * inv_y;
    # the diagonal 0.5 * (d + d), d = (inv_x * deg_x) * inv_x
    S = np.zeros((g.n, g.n))
    S[g.rows, g.indices] = 0.5 * (inv[g.rows] * -g.data * inv[g.indices]
                                  + inv[g.indices] * -g.data * inv[g.rows])
    d = inv * g.deg * inv
    np.fill_diagonal(S, 0.5 * (d + d))
    w, psi = np.linalg.eigh(S)
    del S
    if not np.isfinite(w).all():
        raise IllConditionedError(
            "the eigensolve returned non-finite eigenvalues: the measure-scaled "
            "Laplacian overflows",
            nonfinite_eigenvalues=int(np.count_nonzero(~np.isfinite(w))),
        )

    psi *= inv[:, None]
    # renormalize in the weighted inner product (a near no-op after the
    # similarity, but keeps orthonormality tight)
    norms = np.sqrt(np.einsum("ik,i,ik->k", psi, mv, psi))
    psi /= norms[None, :]

    # deterministic sign: first coordinate above noise level positive
    noise = 1e-12 * np.maximum(psi.max(axis=0), -psi.min(axis=0))
    first = np.argmax(np.abs(psi) > noise, axis=0)
    psi *= np.where(psi[first, np.arange(psi.shape[1])] < 0, -1.0, 1.0)

    floor = g.n * np.finfo(float).eps * float(w[-1])
    n_zero = 1 + int(np.count_nonzero(w[1:] < floor))
    if n_zero > 1:
        raise IllConditionedError(
            f"expected exactly one zero mode on a connected graph, found {n_zero}: "
            "the Laplacian is too ill-conditioned to resolve its spectrum",
            n_zero_modes=n_zero,
        )
    w[0] = 0.0
    for a in (w, psi, mv):
        a.flags.writeable = False
    return Spectrum(graph=g, measure=m, eigenvalues=w, basis=psi, measure_vector=mv)


def _check_time(t: float) -> float:
    t = float(t)
    if not 0 < t < math.inf:
        raise NonpositiveTimeError(f"time must be positive and finite, got {t}", time=t)
    return t


def heat_kernel(spec: Spectrum, t: float) -> KernelMatrix:
    """Heat kernel at time t: sum_k exp(-lambda_k t) psi_k(x) psi_k(y).

    Only the modes whose decay is a normal double (>= 2^-1022), a prefix
    of the ascending spectrum, are summed.  A dropped term is below
    2^-1022 max|psi|^2, under half an ulp of any entry above
    2^-969 max|psi|^2 (entries are near 1/m(X) once modes drop), so the
    result is the full sum bit for bit in practice, without the subnormal
    operands that slow the matrix product at large t.
    """
    t = _check_time(t)
    decay = np.exp(-spec.eigenvalues * t)
    k = int(np.count_nonzero(decay >= np.finfo(float).tiny))
    P = (spec.basis[:, :k] * decay[:k]) @ spec.basis[:, :k].T
    P = 0.5 * (P + P.T)
    P.flags.writeable = False
    return KernelMatrix(graph=spec.graph, entries=P)


def green_kernel(spec: Spectrum) -> KernelMatrix:
    """Centered inverse of the Laplacian: sum over nonzero modes of
    psi_k(x) psi_k(y) / lambda_k.

    Equals the time integral of (heat kernel - equilibrium) mode by mode.
    """
    if len(spec.eigenvalues) < 2:
        raise DisconnectedError("Green kernel requires a positive spectral gap")
    lam = spec.eigenvalues[1:]
    psi = spec.basis[:, 1:]
    G = (psi / lam[None, :]) @ psi.T
    G = 0.5 * (G + G.T)
    G.flags.writeable = False
    return KernelMatrix(graph=spec.graph, entries=G)


def mixing_constants(spec: Spectrum, t0: float) -> tuple[float, float]:
    """Constants (c1, c2) with |p_t(x,y) - 1/m(X)| <= c1 exp(-c2 t) for
    all t >= t0.

    c2 is the spectral gap; c1 comes from the eigenfunction-expansion
    bound at t0, sharp for two-point graphs: the largest entry of the Gram
    matrix of the rows of |psi| exp(-lambda t0 / 2) over the nonzero modes,
    which by Cauchy-Schwarz is its largest diagonal entry
    max_x sum_k psi_k(x)^2 exp(-lambda_k t0).
    """
    t0 = _check_time(t0)
    c2 = spec.spectral_gap
    lam = spec.eigenvalues[1:]
    psi = spec.basis[:, 1:]
    diag = np.einsum("xk,k,xk->x", psi, np.exp(-lam * t0), psi)
    c1 = float(np.exp(c2 * t0) * diag.max())
    return c1, c2


def rate_function(spec: Spectrum, t: float) -> float:
    """Smallest constant bounding the sup norm of the heat semigroup
    applied to a unit m-weighted-L2 function: max_x sqrt(p_{2t}(x,x))."""
    t = _check_time(t)
    decay = np.exp(-2.0 * t * spec.eigenvalues)
    diag = np.einsum("xk,k,xk->x", spec.basis, decay, spec.basis)
    return float(np.sqrt(diag.max()))


def heat_time_integral(spec: Spectrum, f, T: float) -> VertexFunction:
    """Time integral over [0, T] of the heat semigroup applied to f m:

        x -> sum_y integral_0^T p_s(x, y) f(y) m(y) ds,

    evaluated per eigenmode in closed form ((1 - exp(-lambda T)) / lambda,
    and T itself for the zero mode).  f is a ``VertexFunction`` or mapping
    defined exactly on the spectrum's vertices, or a vector in their order.
    """
    T = _check_time(T)
    if isinstance(f, (VertexFunction, Mapping)):
        f = _as_function(f).to_vector(spec.vertices)
    f = np.asarray(f, dtype=float)
    if f.shape != (spec.graph.n,):
        raise DomainMismatchError("f is not a vector on the spectrum's vertices", shape=f.shape)
    coef = spec.basis.T @ (spec.measure_vector * f)
    lam = spec.eigenvalues
    weights = np.empty_like(lam)
    weights[0] = T
    weights[1:] = -np.expm1(-lam[1:] * T) / lam[1:]
    out = spec.basis @ (weights * coef)
    return VertexFunction.from_vector(spec.vertices, out)


def check_spectrum_matches(spec: Spectrum, graph: WeightedGraph, measure: Measure) -> None:
    """Raise if a spectrum was not built from the given graph and measure."""
    if spec.graph != graph or spec.measure != measure:
        raise SpectrumMismatchError(
            "spectrum was computed for a different graph or measure"
        )
