"""``eigendecompose`` fills S from the CSR arrays: its spectrum is the dense
expression's bit for bit, and it forms no dense Laplacian."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gneumann as gn
from gneumann.errors import IllConditionedError
from instances import random_measure


def dense_eigendecompose(g, m):
    """The dense route: S = diag(inv) L diag(inv), symmetrized, then the
    rescale, renormalization, sign rule and zero-mode check."""
    mv = m.to_vector(g.vertices)
    inv_sqrt = 1.0 / np.sqrt(mv)
    L = np.zeros((g.n, g.n))
    L[g.rows, g.indices] = -g.data
    np.fill_diagonal(L, g.deg)
    S = inv_sqrt[:, None] * L * inv_sqrt[None, :]
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    psi = inv_sqrt[:, None] * V
    norms = np.sqrt(np.einsum("ik,i,ik->k", psi, mv, psi))
    psi /= norms[None, :]
    noise = 1e-12 * np.maximum(psi.max(axis=0), -psi.min(axis=0))
    first = np.argmax((psi > noise) | (psi < -noise), axis=0)
    psi *= np.where(psi[first, np.arange(psi.shape[1])] < 0, -1.0, 1.0)
    floor = g.n * np.finfo(float).eps * float(w[-1])
    if np.count_nonzero(w[1:] < floor):
        raise IllConditionedError("more than one zero mode")
    w[0] = 0.0
    return w, psi


def csr_eigendecompose(g, m):
    spec = gn.eigendecompose(g, m)
    return spec.eigenvalues, spec.basis


def outcome(f, g, m):
    try:
        return f(g, m)
    except IllConditionedError as e:
        return type(e)


def assert_same_spectrum(g, m):
    got = outcome(csr_eigendecompose, g, m)
    want = outcome(dense_eigendecompose, g, m)
    if isinstance(want, tuple):
        assert isinstance(got, tuple)
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert np.array_equal(got[1], want[1], equal_nan=True)
    else:
        assert got is want


def graph_from(rng, n, low, star):
    """A random spanning tree plus extra edges, weights log-uniform over
    ten decades from 10^low; with ``star``, vertex 1 is joined to all."""
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2}
    if star:
        pairs |= {(0, j) for j in range(1, n)}
    names = [str(i + 1) for i in range(n)]
    return gn.build_graph(names, [(names[i], names[j], 10.0 ** rng.uniform(low, low + 10))
                                  for i, j in sorted(pairs)])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=70),
       st.integers(min_value=-8, max_value=3), st.booleans())
@example(0, 1, 0, False)
@example(0, 2, 0, True)
def test_csr_fill_matches_dense_expression(seed, n, low, star):
    rng = np.random.default_rng(seed)
    g = graph_from(rng, n, low, star)
    assert_same_spectrum(g, random_measure(rng, g.vertices, 1e-3, 1e3))


def test_csr_fill_matches_dense_expression_when_the_diagonal_overflows():
    # the hub's degree, about 1e308, is finite, and so is its S entry d
    # under unit measure; the symmetrizing sum d + d is not, as in the
    # dense expression, whose eigenvalues are then not finite: the CSR
    # route refuses that spectrum
    g = gn.build_graph([str(i) for i in range(11)], [("0", str(k), 1e307) for k in range(1, 11)])
    assert np.finfo(float).max / 2 < g.deg[0] < np.inf
    m = gn.Measure.uniform(g.vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        w, _ = dense_eigendecompose(g, m)
        assert not np.isfinite(w).all()
        with pytest.raises(IllConditionedError):
            gn.eigendecompose(g, m)


def test_eigendecompose_forms_no_dense_laplacian(monkeypatch):
    def refuse(self):
        raise AssertionError("dense Laplacian formed")

    monkeypatch.setattr(gn.WeightedGraph, "laplacian_matrix", property(refuse))
    rng = np.random.default_rng(3)
    n = 300
    g = graph_from(rng, n, -1, False)
    m = random_measure(rng, g.vertices)
    tracemalloc.start()
    try:
        spec = gn.eigendecompose(g, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.basis.shape == (n, n)
    # S and the eigenvectors; the dense route held L, S and S + S.T besides
    assert peak < 3 * 8 * n * n, peak / (8 * n * n)
