"""The Green route's mode-by-mode sum, the mixing bound's Gram diagonal and
the array sign rule of the eigenbasis, each against the kernel-based code
it replaced, on random connected graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gneumann as gn
from instances import random_centered_phi, random_closure, random_connected_graph, random_measure


def green_by_kernel_columns(sub, phi, spec):
    """u = sum over boundary y of phi(y) mu(y) G[:, y], with the full kernel."""
    G = gn.green_kernel(spec).entries
    uvec = np.zeros(sub.graph.n)
    for y in sub.boundary:
        uvec += phi.values[y] * phi.measure[y] * G[:, sub.graph.index(y)]
    return uvec


def mixing_c1_by_full_gram(spec, t0):
    """c1 from the largest entry of the whole n x n Gram matrix."""
    lam = spec.eigenvalues[1:]
    psi_abs = np.abs(spec.basis[:, 1:])
    A = (psi_abs * np.exp(-lam * t0)[None, :]) @ psi_abs.T
    return float(np.exp(spec.spectral_gap * t0) * A.max())


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_green_route_matches_kernel_column_sum(seed):
    rng = np.random.default_rng(seed)
    sub = random_closure(rng)
    phi = random_centered_phi(rng, sub)
    spec = gn.eigendecompose(sub.graph, sub.measure)
    u = gn.solve_green(sub, phi, spec).u.to_vector(sub.closure)
    ref = green_by_kernel_columns(sub, phi, spec)
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=1e-9, max_value=10.0))
def test_mixing_constant_is_the_gram_maximum(seed, t0):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 16)))
    spec = gn.eigendecompose(g, random_measure(rng, g.vertices))
    c1, c2 = gn.mixing_constants(spec, t0)
    ref = mixing_c1_by_full_gram(spec, t0)
    assert abs(c1 - ref) <= 1e-13 * ref
    assert c2 == spec.spectral_gap


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_eigenbasis_signs_follow_the_column_rule(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 16)))
    psi = gn.eigendecompose(g, random_measure(rng, g.vertices)).basis
    for k in range(psi.shape[1]):
        col = psi[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        assert col[nz[0]] > 0
