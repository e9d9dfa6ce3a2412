"""Forward error against exact arithmetic.  The residual gate bounds the
backward error only; here each route's u is held against the exact
solution, from ``fractions.Fraction`` elimination of the same problem
with its data read as exact rationals, within 10 kappa eps max|u|, where
kappa = lambda_max / lambda_2 of S = M^-1/2 L M^-1/2.

The direct route and the Green route over the modes of ``eigendecompose``
meet that bound on ``test_krylov.random_problem`` at seeds 0-299, in both
modes, over +-4, +-8 and +-16 decades of weights; their worst ratios to
kappa eps max|u| were 2.5 and 3.1 when the bound was set.  The Lanczos
Green and heat routes do not yet meet it and are not tested here, each
passing the residual gate where it misses:
- ``random_problem(7, True, 8.0)`` (n = 8, kappa = 8.4e10): relative error
  2.2e-3 on both;
- ``random_problem(9, True, 16.0)`` (n = 4, kappa = 1.3e14): relative error
  1.0 on both.
"""

from fractions import Fraction

import numpy as np
import pytest

import gneumann as gn
from gneumann.errors import GneumannError
from test_krylov import random_problem

EPS = np.finfo(float).eps


def exact_solution(prob, phi) -> list[Fraction]:
    """The centered u of the problem in exact arithmetic: L u = b - (sum b
    / sum m) m, the load b = phi mu made consistent as the direct route's
    Lagrange row makes it, solved with u = 0 at the last vertex by
    Gaussian elimination, then centered in m."""
    g, n = prob.graph, prob.graph.n
    m = [Fraction(x) for x in prob.measure.to_vector(g.vertices).tolist()]
    b = [Fraction(0)] * n
    mu = prob.boundary_measure()
    for y in prob.boundary:
        b[g.index(y)] = Fraction(phi[y]) * Fraction(mu[y])
    shift = sum(b) / sum(m)
    A = [[Fraction(0)] * n + [b[i] - shift * m[i]] for i in range(n)]
    for x, y, w in g.edges():
        i, j, w = g.index(x), g.index(y), Fraction(w)
        A[i][j] -= w
        A[j][i] -= w
        A[i][i] += w
        A[j][j] += w
    k = n - 1  # ground the last vertex: drop its row and column
    for c in range(k):
        p = next(r for r in range(c, k) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        for r in range(c + 1, k):
            f = A[r][c] / A[c][c]
            if f:
                A[r] = [a - f * e for a, e in zip(A[r], A[c])]
    u = [Fraction(0)] * n
    for c in reversed(range(k)):
        u[c] = (A[c][n] - sum(A[c][j] * u[j] for j in range(c + 1, k))) / A[c][c]
    mean = sum(a * x for a, x in zip(u, m)) / sum(m)
    return [a - mean for a in u]


ROUTES = {
    "direct": lambda prob, phi, spec: gn.solve_direct(prob, phi),
    "eigh green": lambda prob, phi, spec: gn.solve_green(prob, phi, spec),
}


@pytest.mark.parametrize("decades", [4.0, 8.0, 16.0])
def test_forward_error_within_kappa_eps(decades):
    checked = dict.fromkeys(ROUTES, 0)
    for seed in range(300):
        for measure_mode in (False, True):
            made = random_problem(seed, measure_mode, decades)
            if made is None:
                continue
            prob, phi = made
            try:
                spec = gn.eigendecompose(prob.graph, prob.measure)
            except GneumannError:
                continue
            kappa = float(spec.eigenvalues[-1] / spec.eigenvalues[1])
            exact = np.array([float(x) for x in exact_solution(prob, phi)])
            scale = kappa * EPS * np.max(np.abs(exact))
            for name, route in ROUTES.items():
                try:
                    u = route(prob, phi, spec).u.to_vector(prob.graph.vertices)
                except GneumannError:
                    continue
                error = float(np.max(np.abs(u - exact)))
                assert error <= 10.0 * scale, (seed, measure_mode, name, error / scale)
                checked[name] += 1
    # a refusal is allowed, but most problems are solved
    assert min(checked.values()) >= 150, checked
