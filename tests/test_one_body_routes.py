"""The Green and heat routes have one body each, with or without a given
spectrum: its edge cases (a single vertex, a foreign spectrum, zero
data) behave as the Lanczos branch does, and the heat route's one c1
rule bounds the eigen-expansion constant of ``mixing_constants``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gneumann as gn
from gneumann.errors import NonpositiveToleranceError, SpectrumMismatchError
from gneumann.fixtures import path_graph
from gneumann.solver import _mixing_c1
from instances import random_centered_phi, random_closure, random_connected_graph, random_measure

ROUTES = [gn.solve_green, gn.solve_heat_integral]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("with_spec", [False, True])
def test_one_vertex_boundary_measure_problem_gives_zero(route, with_spec):
    g = gn.build_graph(["a"], [])
    m = gn.Measure({"a": 2.0})
    sub = gn.NeumannProblem(g, ["a"], m, gn.Measure({"a": 0.5}))
    spec = gn.eigendecompose(g, m) if with_spec else None
    sol = route(sub, {"a": 0.0}, spec)
    assert sol.u.array.tolist() == [0.0]
    assert sol.residual_interior == sol.residual_boundary == sol.centering == 0.0


@pytest.mark.parametrize("route", ROUTES)
def test_foreign_spectrum_with_zero_data_is_refused(route, p3_closure):
    p4 = path_graph(4)
    foreign = gn.eigendecompose(p4, gn.Measure.uniform(p4.vertices))
    with pytest.raises(SpectrumMismatchError):
        route(p3_closure, {"1": 0.0, "3": 0.0}, foreign)


def test_foreign_spectrum_is_refused_before_the_tolerance(p3_closure):
    p4 = path_graph(4)
    foreign = gn.eigendecompose(p4, gn.Measure.uniform(p4.vertices))
    with pytest.raises(SpectrumMismatchError):
        gn.solve_heat_integral(p3_closure, {"1": 0.0, "3": 0.0}, foreign, tol=-1.0)
    spec = gn.eigendecompose(p3_closure.graph, p3_closure.measure)
    with pytest.raises(NonpositiveToleranceError):
        gn.solve_heat_integral(p3_closure, {"1": 0.0, "3": 0.0}, spec, tol=-1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=15),
       st.floats(min_value=1e-9, max_value=10.0))
def test_c1_rule_bounds_the_eigen_expansion_constant(seed, n, t0):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    m = random_measure(rng, g.vertices)
    spec = gn.eigendecompose(g, m)
    gap = spec.spectral_gap
    gram, c2 = gn.mixing_constants(spec, min(t0, 1.0 / gap))
    assert c2 == gap
    assert _mixing_c1(spec.measure_vector, m.total, gap, t0) * (1.0 + 1e-12) >= gram


@pytest.mark.parametrize("seed", range(5))
def test_spectral_heat_horizon_follows_the_c1_rule(seed):
    rng = np.random.default_rng(seed)
    sub = random_closure(rng)
    phi = random_centered_phi(rng, sub)
    spec = gn.eigendecompose(sub.graph, sub.measure)
    tol = 1e-10
    sol = gn.solve_heat_integral(sub, phi, spec, tol=tol)
    gap = spec.spectral_gap
    mass = sum(abs(phi.values[y]) * sub.measure[y] for y in sub.boundary)
    c1 = _mixing_c1(sub.measure.to_vector(sub.graph.vertices), sub.measure.total, gap)
    assert sol.truncation_horizon == pytest.approx(math.log(c1 * mass / (gap * tol)) / gap,
                                                   rel=1e-12)
