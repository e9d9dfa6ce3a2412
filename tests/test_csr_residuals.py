"""The residual routine applies the Laplacian through the graph's CSR
arrays: it agrees with a dense L @ u row by row within the gate's rounding
floor, and verifies a closure of 10^4 vertices without any n x n matrix."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gneumann as gn
from gneumann.solver import _problem, _residuals
from instances import random_centered_phi, random_closure


def dense_laplacian(g):
    L = np.zeros((g.n, g.n))
    L[g.rows, g.indices] = -g.data
    np.fill_diagonal(L, g.deg)
    return L


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([0.0, 1e-9, 1e-6]))
def test_csr_residual_matches_dense_product(seed, noise):
    # u near the solution, as the gate sees it: the boundary load cancels
    # Lu, and each side's rounding is within (row length + 1) eps / 2 of
    # |L| |u|, so the two sides differ by less than the floor
    rng = np.random.default_rng(seed)
    sub = random_closure(rng, n_max=20, max_weight=float(10.0 ** rng.integers(-3, 4)))
    phi = random_centered_phi(rng, sub)
    problem = _problem(sub, phi)
    g, mv, bidx, flux, muv = problem
    u = gn.solve_direct(sub, phi).u.to_vector(sub.closure) + noise * rng.standard_normal(g.n)
    _, _, _, rel, w = _residuals(*problem, u)

    L = dense_laplacian(g)
    r = L @ u
    r[bidx] -= flux * muv
    floor = (np.diff(g.indptr) + 2) * np.finfo(float).eps * (np.abs(L) @ np.abs(u)) / w
    assert np.all(np.abs(rel - np.abs(r) / w) <= floor)


def test_verify_solution_forms_no_dense_laplacian(monkeypatch):
    # a 102 x 102 grid whose inner 100 x 100 block is the interior: the
    # closure has 10,400 vertices, and its dense Laplacian would be 865 MB
    k = 102
    idx = np.arange(k * k).reshape(k, k)
    i = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    j = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
    g = gn.build_graph([str(v) for v in range(k * k)], arrays=(i, j, np.ones(i.size)))
    m = gn.Measure.uniform(g.vertices)
    sub = gn.closure_subgraph(g, [str(v) for v in idx[1:-1, 1:-1].ravel()], m)
    assert len(sub.closure) == 10_400

    def refuse(self):
        raise AssertionError("dense Laplacian formed")

    monkeypatch.setattr(gn.WeightedGraph, "laplacian_matrix", property(refuse))
    # u linear in the column: harmonic inside, its normal derivative is phi
    col = {str(v): float(c) for (_, c), v in np.ndenumerate(idx)}
    mean = sum(col[x] for x in sub.closure) / len(sub.closure)
    u = gn.VertexFunction({x: col[x] - mean for x in sub.closure})
    phi = gn.normal_derivative(sub, u)
    sol = gn.NeumannSolution(u=u, method="direct", residual_interior=0.0,
                             residual_boundary=0.0, centering=0.0)
    report = gn.verify_solution(sub, sol, phi)
    assert report.passed
    assert report.residual_interior <= 1e-12 and report.residual_boundary <= 1e-12
