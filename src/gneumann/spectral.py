"""Functions of the measure-weighted Laplacian: the eigendecomposition
and the kernels built from it (heat kernel, Green kernel, contraction
rate and mixing constants), and one function of it applied to one vector
by Lanczos.

The generalized eigenproblem in the m-weighted inner product is reduced
to an ordinary symmetric one through the diag(m)^{+-1/2} similarity,
S = diag(m)^{-1/2} L diag(m)^{-1/2}.  Whole kernels (``kernel``,
``verify``) come from one dense symmetric eigensolve of S, at desk scale
(up to a few thousand vertices).  A solve needs f(S) applied to one
vector only: ``krylov_apply`` builds it from a Krylov basis that grows
with its steps, applying S through the CSR arrays, so no n x n array is
formed.
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
from .forms import VertexFunction, _as_function, _laplacian
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
    "krylov_apply",
    "check_spectrum_matches",
]

# Lanczos stops at a check where its iterate moved by at most KRYLOV_RTOL
# of its norm since the previous check; checks come every _KRYLOV_CHECK
# steps at first, then every eighth of the steps taken, so the small
# eigensolves of the checks cost O(k^3) in all
KRYLOV_RTOL = 1e-13
_KRYLOV_CHECK = 10


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
    from zero.  An S with an entry that overflows is refused before the
    eigensolve, and so is a spectrum that LAPACK does not converge on or
    that comes back not finite.
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
    if not np.isfinite(S).all():
        raise IllConditionedError(
            "the measure-scaled Laplacian overflows: an entry of S is not finite",
            nonfinite_entries=int(np.count_nonzero(~np.isfinite(S))),
        )
    try:
        w, psi = np.linalg.eigh(S)
    except np.linalg.LinAlgError as e:
        raise IllConditionedError(f"the eigensolve failed: {e}") from e
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


def _time_integral(z: np.ndarray, T: float) -> np.ndarray:
    """integral_0^T e^{-z s} ds = (1 - e^{-z T}) / z for each z > 0: the
    weight of a mode of eigenvalue z in the heat-time integral."""
    return -np.expm1(-z * T) / z


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
    weights[1:] = _time_integral(lam[1:], T)
    out = spec.basis @ (weights * coef)
    return VertexFunction.from_vector(spec.vertices, out)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm by a pairwise sum, scaled so that squares of finite
    entries cannot overflow."""
    s = float(np.max(np.abs(x)))
    return s * math.sqrt(np.sum((x / s) ** 2)) if 0.0 < s < math.inf else s


def krylov_apply(g: WeightedGraph, m: Measure, v, fun) -> tuple[np.ndarray, float]:
    """M^{-1/2} fun(S) M^{-1/2} v off the constants, by Lanczos, with a
    lower bound on the spectral gap; M = diag(m), v a vector in vertex
    order.  In the eigenfunctions psi_k of the Laplacian it is the sum over
    the nonzero modes of fun(lambda_k) psi_k (psi_k . v): with v = f m,
    ``heat_time_integral`` with weights fun but without its zero mode.

    Lanczos runs on S from M^{-1/2} v projected off S's null vector
    M^{1/2} 1 (Saad, SIAM J. Numer. Anal. 1992; Hochbruck & Lubich, SIAM
    J. Numer. Anal. 1997), applying S through the CSR arrays.  Each new
    vector is orthogonalized twice against the null vector and every
    earlier one, which are kept in a basis that grows with the steps
    taken.  After k steps the iterate is |r_0| Q_k fun(T_k) e_1, from the
    eigendecomposition T_k = Y diag(z) Y^T of the k x k tridiagonal matrix.

    ``fun(z, gap)`` maps the Ritz values z, all positive, and ``gap`` to
    the weights.  ``gap`` is z_1 - |beta_k y_{k,1}| - k eps max z: the
    smallest Ritz value less its residual norm and the rounding of the
    steps, a lower bound on the smallest eigenvalue of S that the start
    vector reaches.  A check counts as converged when ``gap`` is positive
    and the iterate moved by at most ``KRYLOV_RTOL`` of its norm since
    the last check whose ``gap`` was positive.  The run also ends when the
    Krylov space is exhausted: at n - 1 steps, or when the next vector is
    rounding noise (beta_k <= k eps |T_k|, an invariant subspace).  A
    ``gap`` that is still not positive then is an ``IllConditionedError``,
    as is a non-finite step.  Returns the vector and ``gap``; a v with no
    component off the constants gives zeros and a ``gap`` of inf.

    Reductions are numpy's ``einsum`` and pairwise sums, never a BLAS
    call, so the bytes do not depend on the number of CPUs.
    """
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")
    n = g.n
    mv = m.to_vector(g.vertices)
    inv = 1.0 / np.sqrt(mv)
    eps = np.finfo(float).eps
    # row 0 the unit null vector of S, rows 1..k the Lanczos vectors
    Q = np.empty((min(n, 2 * _KRYLOV_CHECK), n))
    Q[0] = np.sqrt(mv)
    Q[0] /= _norm(Q[0])

    def orthogonalize(w: np.ndarray, k: int) -> np.ndarray:
        for _ in range(2):
            w = w - np.einsum("kn,k->n", Q[:k + 1], np.einsum("kn,n->k", Q[:k + 1], w))
        return w

    # v scaled by a power of two to below 1 in size, exactly, so that
    # M^-1/2 v underflows only where it is negligible; undone at the end
    v = np.asarray(v, dtype=float)
    e = int(np.frexp(np.max(np.abs(v), initial=0.0))[1])
    r = orthogonalize(inv * np.ldexp(v, -e), 0)
    beta0 = _norm(r)
    if not math.isfinite(beta0):
        raise IllConditionedError("Lanczos: the start vector M^-1/2 v is not finite")
    if beta0 == 0.0:
        return np.zeros(n), math.inf
    alpha, beta = [], []
    anorm = 0.0
    last = None  # the iterate's coefficients at the last check with a positive gap
    k, check = 0, _KRYLOV_CHECK
    while True:
        k += 1
        if k == len(Q):
            Q = np.concatenate([Q, np.empty((min(n, 2 * k) - k, n))])
        Q[k] = r / (beta0 if k == 1 else beta[-1])
        w = inv * _laplacian(g, inv * Q[k])
        a = float(np.sum(Q[k] * w))
        w -= a * Q[k]
        if k > 1:
            w -= beta[-1] * Q[k - 1]
        r = orthogonalize(w, k)
        b = _norm(r)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise IllConditionedError(
                f"Lanczos step {k} is not finite: the measure-scaled Laplacian overflows",
                step=k)
        anorm = max(anorm, abs(a) + b + (beta[-1] if beta else 0.0))
        alpha.append(a)
        beta.append(b)
        exhausted = k == n - 1 or b <= k * eps * anorm
        if k < check and not exhausted:
            continue
        check = k + max(_KRYLOV_CHECK, k // 8)
        z, Y = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        gap = float(z[0] - abs(b * Y[-1, 0]) - k * eps * np.max(np.abs(z)))
        if gap > 0.0:
            coef = beta0 * np.einsum("ij,j->i", Y, fun(z, gap) * Y[0])
            if exhausted or (last is not None and _norm(coef - np.pad(last, (0, k - len(last))))
                             <= KRYLOV_RTOL * _norm(coef)):
                return np.ldexp(inv * np.einsum("kn,k->n", Q[1:k + 1], coef), e), gap
            last = coef
        elif exhausted:
            raise IllConditionedError(
                "Lanczos cannot bound the spectral gap away from zero: the Laplacian is "
                "too ill-conditioned to resolve its spectrum", steps=k, gap_bound=gap)


def check_spectrum_matches(spec: Spectrum, graph: WeightedGraph, measure: Measure) -> None:
    """Raise if a spectrum was not built from the given graph and measure."""
    if spec.graph != graph or spec.measure != measure:
        raise SpectrumMismatchError(
            "spectrum was computed for a different graph or measure"
        )
