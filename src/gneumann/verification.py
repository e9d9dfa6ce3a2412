"""Invariant suites for the kernel identities and solver cross-checks.

Each check returns a small dict with a pass flag, the worst observed
error and the tolerance it was held against, so the CLI can emit the
whole battery as one JSON report and the tests can assert on individual
suites.
"""

from __future__ import annotations

import math

import numpy as np

from .forms import (
    VertexFunction,
    _laplacian,
    energy,
    energy_bilinear,
    interior_laplacian,
    markov_contraction,
    normal_derivative,
)
from .graphs import NeumannProblem, SubgraphClosure, WeightedGraph
from .solver import (
    BoundaryData,
    solve_direct,
    solve_green,
    solve_heat_integral,
)
from .spectral import (
    Spectrum,
    eigendecompose,
    green_kernel,
    heat_kernel,
    mixing_constants,
    rate_function,
)

__all__ = [
    "check_gauss_green",
    "check_chapman_kolmogorov",
    "check_stochastic_completeness",
    "check_kernel_bounds",
    "check_heat_equation",
    "check_mixing",
    "check_ultracontractivity",
    "check_markov_property",
    "check_green_identity",
    "check_cross_methods",
    "run_all_suites",
]


def _result(passed: bool, max_error: float, tolerance: float, **extra) -> dict:
    """A suite's dict; an error that is not finite fails the suite."""
    out = {"passed": bool(passed) and math.isfinite(max_error), "max_error": float(max_error),
           "tolerance": float(tolerance)}
    out.update(extra)
    return out


def check_gauss_green(sub: SubgraphClosure, n_pairs: int = 50, seed: int = 0,
                      tol: float = 1e-10) -> dict:
    """Energy form against interior Laplacian plus boundary flux, for
    random function pairs on the closure."""
    rng = np.random.default_rng(seed % 2**64)
    g = sub.graph
    b = sub.boundary_index
    worst = 0.0
    for _ in range(n_pairs):
        u = VertexFunction.from_vector(sub.closure, rng.uniform(-1, 1, g.n))
        vv = rng.uniform(-1, 1, g.n)
        lhs = energy_bilinear(g, u, VertexFunction.from_vector(sub.closure, vv))
        lap = interior_laplacian(sub, u).to_vector(sub.closure)
        nd = normal_derivative(sub, u).to_vector(sub.boundary)
        vm = vv * sub.measure_vector
        rhs = float(lap @ vm + nd @ vm[b])
        scale = max(1.0, abs(lhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    return _result(worst <= tol, worst, tol, pairs=n_pairs)


def check_chapman_kolmogorov(spec: Spectrum, n_pairs: int = 10, seed: int = 0,
                             tol: float = 1e-9) -> dict:
    """Semigroup composition: integrating p_t against p_s reproduces
    p_{t+s}."""
    rng = np.random.default_rng(seed % 2**64)
    gap = spec.spectral_gap
    worst = 0.0
    for _ in range(n_pairs):
        s = float(rng.uniform(0.05, 2.0)) / gap
        t = float(rng.uniform(0.05, 2.0)) / gap
        Pt = heat_kernel(spec, t).entries
        Ps = heat_kernel(spec, s).entries
        Pts = heat_kernel(spec, t + s).entries
        composed = Pt @ (spec.measure_vector[:, None] * Ps)
        worst = max(worst, float(np.max(np.abs(composed - Pts))))
    return _result(worst <= tol, worst, tol, pairs=n_pairs)


def _time_grid(spec: Spectrum) -> list[float]:
    gap = spec.spectral_gap
    return [0.01 / gap, 0.1 / gap, 1.0 / gap, 10.0 / gap]


def check_stochastic_completeness(spec: Spectrum, tol: float = 1e-10) -> dict:
    """Heat kernel rows integrate to one against the measure."""
    worst = 0.0
    for t in _time_grid(spec):
        P = heat_kernel(spec, t).entries
        worst = max(worst, float(np.max(np.abs(P @ spec.measure_vector - 1.0))))
    return _result(worst <= tol, worst, tol)


def check_kernel_bounds(spec: Spectrum, tol: float = 1e-10) -> dict:
    """Pointwise bound p_t(x,y) <= min(1/m(x), 1/m(y)) and nonnegativity
    up to roundoff."""
    inv = 1.0 / spec.measure_vector
    cap = np.minimum(inv[:, None], inv[None, :])
    worst = 0.0
    for t in _time_grid(spec):
        P = heat_kernel(spec, t).entries
        worst = max(worst, float(np.max(P - cap)))
        worst = max(worst, float(np.max(-P) - 1e-12))
    return _result(worst <= tol, worst, tol)


def check_heat_equation(spec: Spectrum, ratio_range=(3.0, 5.0)) -> dict:
    """Central finite differences of the kernel in time match minus the
    Laplacian applied to it, with the second-order error ratio ~4 when
    the step halves."""
    lam_max = float(spec.eigenvalues[-1])
    t = 1.0 / lam_max
    h = t / 50.0
    target = -_laplacian(spec.graph, heat_kernel(spec, t).entries) / spec.measure_vector[:, None]

    def fd_error(step: float) -> float:
        diff = (heat_kernel(spec, t + step).entries - heat_kernel(spec, t - step).entries) / (2 * step)
        return float(np.max(np.abs(diff - target)))

    e1 = fd_error(h)
    e2 = fd_error(h / 2)
    ratio = e1 / e2 if e2 > 0 else float("inf")
    ok = ratio_range[0] <= ratio <= ratio_range[1]
    return _result(ok, ratio, ratio_range[1], errors=[e1, e2], ratio=ratio,
                   expected_ratio=4.0)


def check_mixing(spec: Spectrum, t0: float | None = None, n_grid: int = 50,
                 slack: float = 1e-12) -> dict:
    """Exponential convergence to equilibrium with the returned constants,
    on a log-spaced time grid starting at t0."""
    if t0 is None:
        t0 = 0.1 / spec.spectral_gap
    c1, c2 = mixing_constants(spec, t0)
    grid = np.logspace(np.log10(t0), np.log10(t0 + 20.0 / c2), n_grid)
    eq = 1.0 / spec.measure.total
    worst = -np.inf
    for t in grid:
        P = heat_kernel(spec, float(t)).entries
        bound = c1 * np.exp(-c2 * t) + slack
        worst = max(worst, float(np.max(np.abs(P - eq)) - bound))
    return _result(worst <= 0.0, worst, 0.0, c1=c1, c2=c2, grid_points=n_grid)


def check_ultracontractivity(spec: Spectrum, tol: float = 1e-10) -> dict:
    """Kernel at doubled time stays below the squared contraction rate."""
    worst = 0.0
    for t in _time_grid(spec):
        g = rate_function(spec, t)
        P2t = heat_kernel(spec, 2 * t).entries
        worst = max(worst, float(np.max(P2t) - g * g))
    return _result(worst <= tol, worst, tol)


def check_markov_property(g: WeightedGraph, n_funcs: int = 20, seed: int = 0,
                          slack: float = 1e-12) -> dict:
    """Clamping to [0,1] never increases the energy."""
    rng = np.random.default_rng(seed % 2**64)
    worst = -np.inf
    for _ in range(n_funcs):
        u = VertexFunction.from_vector(g.vertices, rng.uniform(-2, 3, g.n))
        worst = max(worst, energy(g, markov_contraction(u)) - energy(g, u))
    return _result(worst <= slack, worst, slack, functions=n_funcs)


def check_green_identity(spec: Spectrum, tol: float = 1e-9) -> dict:
    """Laplacian applied to a Green column gives the centered point mass."""
    G = green_kernel(spec).entries
    mv = spec.measure_vector
    lap = _laplacian(spec.graph, G) / mv[:, None]
    expected = np.diag(1.0 / mv) - 1.0 / spec.measure.total
    worst = float(np.max(np.abs(lap - expected)))
    return _result(worst <= tol, worst, tol)


def check_cross_methods(sub: NeumannProblem, spec: Spectrum, phi=None,
                        seed: int = 0, tol: float = 1e-8) -> dict:
    """The direct, Green-kernel and heat-integral solutions of a Neumann
    problem agree in sup norm; without ``phi``, on random data centered
    against the boundary measure."""
    if phi is None:
        rng = np.random.default_rng(seed % 2**64)
        raw = rng.standard_normal(len(sub.boundary))
        mb = sub.boundary_measure().to_vector(sub.boundary)
        raw -= (raw @ mb) / mb.sum()
        phi = BoundaryData.for_closure(sub, VertexFunction.from_vector(sub.boundary, raw))
    order = sub.graph.vertices
    u_direct = solve_direct(sub, phi).u.to_vector(order)
    u_green = solve_green(sub, phi, spec).u.to_vector(order)
    u_heat = solve_heat_integral(sub, phi, spec, tol=tol / 10).u.to_vector(order)
    d1 = float(np.max(np.abs(u_direct - u_green)))
    d2 = float(np.max(np.abs(u_direct - u_heat)))
    d3 = float(np.max(np.abs(u_green - u_heat)))
    worst = max(d1, d2, d3)
    return _result(worst <= tol, worst, tol,
                   direct_vs_green=d1, direct_vs_heat=d2, green_vs_heat=d3)


def run_all_suites(sub: SubgraphClosure, phi=None, seed: int = 0) -> dict:
    """Full battery on one closure instance; returns a JSON-ready report.
    A suite whose error is not finite fails."""
    spec = eigendecompose(sub.graph, sub.measure)
    suites = {
        "gauss_green": check_gauss_green(sub, seed=seed),
        "chapman_kolmogorov": check_chapman_kolmogorov(spec, seed=seed),
        "stochastic_completeness": check_stochastic_completeness(spec),
        "kernel_bounds": check_kernel_bounds(spec),
        "heat_equation": check_heat_equation(spec),
        "mixing": check_mixing(spec),
        "ultracontractivity": check_ultracontractivity(spec),
        "markov_property": check_markov_property(sub.graph, seed=seed),
        "green_identity": check_green_identity(spec),
        "cross_method": check_cross_methods(sub, spec, phi=phi, seed=seed),
    }
    report = {
        "vertices": len(sub.closure),
        "interior": list(sub.interior),
        "boundary": list(sub.boundary),
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
    }
    if len(sub.closure) <= 12:
        G = green_kernel(spec)
        report["green_kernel"] = {
            x: {y: G.entry(x, y) for y in sub.closure} for x in sub.closure
        }
    return report
