import math

import numpy as np
import pytest

import gneumann as gn
from gneumann import VertexFunction
from gneumann.errors import DisconnectedError, NonpositiveTimeError
from gneumann.fixtures import complete_graph
from gneumann.verification import (
    check_chapman_kolmogorov,
    check_green_identity,
    check_heat_equation,
    check_kernel_bounds,
    check_mixing,
    check_stochastic_completeness,
    check_ultracontractivity,
)
from instances import random_connected_graph, random_measure


@pytest.fixture
def two_vertex_spec(two_vertex):
    g, m = two_vertex
    return gn.eigendecompose(g, m)


@pytest.fixture
def p3_spec(p3):
    return gn.eigendecompose(p3, gn.Measure.uniform(p3.vertices))


def test_spectrum_carries_its_measure_vector(p3):
    m = gn.Measure({"1": 1.0, "2": 2.5, "3": 0.5})
    spec = gn.eigendecompose(p3, m)
    assert np.array_equal(spec.measure_vector, m.to_vector(spec.vertices))
    assert not spec.measure_vector.flags.writeable


def test_eigendecompose_two_vertex(two_vertex_spec):
    spec = two_vertex_spec
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(spec.basis[:, 0], [s, s], atol=1e-12)
    np.testing.assert_allclose(spec.basis[:, 1], [s, -s], atol=1e-12)


def test_eigendecompose_p3(p3_spec):
    np.testing.assert_allclose(p3_spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)
    psi1 = p3_spec.basis[:, 1]
    psi2 = p3_spec.basis[:, 2]
    np.testing.assert_allclose(psi1, np.array([1, 0, -1]) / math.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(psi2, np.array([1, -2, 1]) / math.sqrt(6), atol=1e-12)


def test_eigendecompose_weighted_measure():
    g = gn.build_graph(["1", "2"], [("1", "2", 1.0)])
    spec = gn.eigendecompose(g, gn.Measure({"1": 2.0, "2": 2.0}))
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.0], atol=1e-12)


def test_eigendecompose_rejects_disconnected():
    g = gn.build_graph(["1", "2", "3"], [("1", "2", 1.0)])
    with pytest.raises(DisconnectedError):
        gn.eigendecompose(g, gn.Measure.uniform(g.vertices))


def test_spectrum_invariants_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        m = random_measure(rng, g.vertices)
        spec = gn.eigendecompose(g, m)
        lam = spec.eigenvalues
        assert lam[0] == 0.0
        assert np.all(np.diff(lam) >= -1e-12)
        assert spec.spectral_gap > 0
        # constant ground state
        psi0 = spec.basis[:, 0]
        assert np.max(psi0) - np.min(psi0) <= 1e-9
        # orthonormality in the weighted inner product
        mv = m.to_vector(g.vertices)
        gram = spec.basis.T @ (mv[:, None] * spec.basis)
        np.testing.assert_allclose(gram, np.eye(g.n), atol=1e-9)
        # eigen relation through the pointwise Laplacian
        for k in range(g.n):
            psi = VertexFunction.from_vector(g.vertices, spec.basis[:, k])
            lpsi = gn.formal_laplacian(g, m, psi).to_vector(g.vertices)
            err = lpsi - lam[k] * spec.basis[:, k]
            assert math.sqrt(float(err @ (mv * err))) <= 1e-8


def test_heat_kernel_two_vertex_closed_form(two_vertex_spec):
    P = gn.heat_kernel(two_vertex_spec, 0.5)
    assert P.entry("1", "1") == pytest.approx(0.5 * (1 + math.exp(-1)), abs=1e-14)
    assert P.entry("1", "2") == pytest.approx(0.5 * (1 - math.exp(-1)), abs=1e-14)


def test_heat_kernel_small_time_limit(p3_spec):
    P = gn.heat_kernel(p3_spec, 1e-8).entries
    np.testing.assert_allclose(P, np.eye(3), atol=1e-6)


def test_heat_kernel_long_time_limit(p3_spec):
    P = gn.heat_kernel(p3_spec, 100.0).entries
    np.testing.assert_allclose(P, np.full((3, 3), 1 / 3), atol=1e-12)


def test_heat_kernel_rejects_nonpositive_time(p3_spec):
    with pytest.raises(NonpositiveTimeError):
        gn.heat_kernel(p3_spec, 0.0)
    with pytest.raises(NonpositiveTimeError):
        gn.rate_function(p3_spec, -1.0)


def test_green_kernel_two_vertex(two_vertex_spec):
    G = gn.green_kernel(two_vertex_spec)
    assert G.entry("1", "1") == pytest.approx(0.25, abs=1e-14)
    assert G.entry("1", "2") == pytest.approx(-0.25, abs=1e-14)


def test_green_kernel_p3(p3_spec):
    G = gn.green_kernel(p3_spec)
    assert G.entry("1", "1") == pytest.approx(5 / 9, abs=1e-12)
    assert G.entry("1", "3") == pytest.approx(-4 / 9, abs=1e-12)


def test_green_rows_integrate_to_zero():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        m = random_measure(rng, g.vertices)
        spec = gn.eigendecompose(g, m)
        G = gn.green_kernel(spec).entries
        mv = m.to_vector(g.vertices)
        np.testing.assert_allclose(G @ mv, 0.0, atol=1e-10)


def test_green_equals_time_integral_of_centered_kernel(p3_spec):
    # independent route: numerical quadrature of (p_t - equilibrium)
    from scipy.integrate import quad

    eq = 1 / p3_spec.measure.total
    G = gn.green_kernel(p3_spec)
    for x, y in [("1", "1"), ("1", "3"), ("2", "3")]:
        val, err = quad(
            lambda t: gn.heat_kernel(p3_spec, t).entry(x, y) - eq, 0, 60, limit=200
        )
        assert G.entry(x, y) == pytest.approx(val, abs=1e-8)


def test_mixing_constants_two_vertex(two_vertex_spec):
    c1, c2 = gn.mixing_constants(two_vertex_spec, 1e-9)
    assert c2 == pytest.approx(2.0, abs=1e-12)
    assert c1 == pytest.approx(0.5, abs=1e-8)
    # the bound is tight here: |p_t(x,y) - 1/2| = (1/2) e^{-2t}
    for t in [0.1, 0.5, 2.0]:
        P = gn.heat_kernel(two_vertex_spec, t)
        assert abs(P.entry("1", "2") - 0.5) == pytest.approx(c1 * math.exp(-c2 * t), rel=1e-8)


def test_mixing_constants_complete_graph():
    k3 = complete_graph(3)
    spec = gn.eigendecompose(k3, gn.Measure.uniform(k3.vertices))
    _, c2 = gn.mixing_constants(spec, 0.1)
    assert c2 == pytest.approx(3.0, abs=1e-12)


def test_mixing_bound_self_check(p3_spec):
    result = check_mixing(p3_spec, t0=1e-9)
    assert result["passed"], result


def test_rate_function_two_vertex(two_vertex_spec):
    gamma = gn.rate_function(two_vertex_spec, 0.5)
    assert gamma == pytest.approx(math.sqrt(0.5 * (1 + math.exp(-2))), abs=1e-14)


def test_rate_function_long_time(p3_spec):
    gamma = gn.rate_function(p3_spec, 1e4)
    assert gamma == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_rate_function_bounds_semigroup_sup_norm(p3_spec):
    rng = np.random.default_rng(12)
    mv = p3_spec.measure.to_vector(p3_spec.vertices)
    for t in [0.05, 0.3, 1.0]:
        P = gn.heat_kernel(p3_spec, t).entries
        gamma = gn.rate_function(p3_spec, t)
        for _ in range(100):
            u = rng.uniform(-1, 1, 3)
            smoothed = P @ (mv * u)
            l2 = math.sqrt(float(u @ (mv * u)))
            assert np.max(np.abs(smoothed)) <= gamma * l2 + 1e-12


def test_kernel_symmetry_is_exact():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 7)
    m = random_measure(rng, g.vertices)
    spec = gn.eigendecompose(g, m)
    P = gn.heat_kernel(spec, 0.7).entries
    G = gn.green_kernel(spec).entries
    assert np.max(np.abs(P - P.T)) <= 1e-12
    assert np.max(np.abs(G - G.T)) <= 1e-12


def test_appendix_invariants_on_random_graphs():
    rng = np.random.default_rng(41)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        m = random_measure(rng, g.vertices)
        spec = gn.eigendecompose(g, m)
        assert check_chapman_kolmogorov(spec, n_pairs=5, seed=1)["passed"]
        assert check_stochastic_completeness(spec)["passed"]
        assert check_kernel_bounds(spec)["passed"]
        assert check_mixing(spec)["passed"]
        assert check_ultracontractivity(spec)["passed"]
        assert check_green_identity(spec)["passed"]


def test_heat_equation_second_order(p3_spec):
    result = check_heat_equation(p3_spec)
    assert result["passed"], result
    assert 3.0 <= result["ratio"] <= 5.0


def test_heat_time_integral_matches_quadrature(p3_spec):
    from scipy.integrate import quad

    f = VertexFunction({"1": 1.0, "2": 0.5, "3": -2.0})
    T = 2.5
    out = gn.heat_time_integral(p3_spec, f, T)
    mv = p3_spec.measure.to_vector(p3_spec.vertices)
    fv = f.to_vector(p3_spec.vertices)
    for x in p3_spec.vertices:
        i = p3_spec.vertices.index(x)
        val, _ = quad(
            lambda s: float(gn.heat_kernel(p3_spec, s).entries[i] @ (mv * fv)),
            0, T, limit=200,
        )
        assert out[x] == pytest.approx(val, abs=1e-9)
