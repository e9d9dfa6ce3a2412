"""Conjugate gradients give up on a problem they cannot finish once their
residual stalls, not after n steps: the dense LU then solves it, and its
result is kept exactly."""

import numpy as np

import gneumann as gn
from gneumann import solver
from test_direct_cg import _dense_lu, _problem, _spy_cg


def _count_laplacian(monkeypatch) -> list:
    calls = []
    lap = solver._laplacian

    def counted(*args):
        calls.append(None)
        return lap(*args)

    monkeypatch.setattr(solver, "_laplacian", counted)
    return calls


def test_data_centered_only_within_tolerance_stops_at_the_stall(monkeypatch):
    # L u = phi mu is inconsistent above CG_RTOL, so CG cannot converge: it
    # stops about _CG_STALL steps after its last halving, not after n = 1025
    problem, phi = _problem("measure", 1025)
    mu = problem.boundary_measure().to_vector(problem.boundary)
    values = phi.values.to_vector(problem.boundary)
    values = values + 1e-11 * np.sum(np.abs(values) * mu) / np.sum(mu)
    phi = gn.BoundaryData.for_closure(problem, dict(zip(problem.boundary, values.tolist())))
    seen = _spy_cg(monkeypatch)
    calls = _count_laplacian(monkeypatch)
    u = gn.solve_direct(problem, phi).u.to_vector(problem.graph.vertices)
    assert seen == [None] and len(calls) <= 600
    assert np.array_equal(u, _dense_lu(problem, phi))


def test_the_stall_window_decides_when_cg_gives_up(monkeypatch):
    # a solvable problem: cut by a one-step window, solved by the default one
    problem, phi = _problem("closure", 1025)
    monkeypatch.setattr(solver, "_CG_STALL", 1)
    seen = _spy_cg(monkeypatch)
    gn.solve_direct(problem, phi)
    assert seen == [None]
    monkeypatch.undo()
    seen = _spy_cg(monkeypatch)
    gn.solve_direct(problem, phi)
    assert seen[0] is not None
