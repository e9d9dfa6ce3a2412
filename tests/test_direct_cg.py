"""The direct route above ``solver.DENSE_MAX_N`` vertices: Jacobi-preconditioned
conjugate gradients on the CSR arrays agree with the dense LU, keep to a
few n-vectors of memory, and hand every problem they cannot finish to the
LU, whose result and error they then keep exactly.  At and below the
threshold the LU runs as before, bit for bit.  Also: an allocation numpy
refuses ends a command in one JSON error."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

import gneumann as gn
from gneumann import solver
from gneumann.cli import main
from gneumann.errors import IncompatibleDataError
from test_csr_direct import _closure_problem, _measure_problem, _refuse_dense

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError


def _problem(mode, n, seed=0):
    """A desk-like problem on exactly n vertices: the whole random graph
    with 200 boundary vertices and their own mu, or the closure of a
    subtree that reaches every vertex of the graph."""
    rng = np.random.default_rng(seed)
    problem, phi = _measure_problem(rng, n, 200) if mode == "measure" else _closure_problem(rng, n, n - 100)
    assert problem.graph.n == n
    return problem, phi


def _dense_lu(problem, phi):
    """u from numpy's LU of the augmented system, built from the dense L."""
    g, n = problem.graph, problem.graph.n
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = g.laplacian_matrix
    K[:n, n] = K[n, :n] = problem.measure.to_vector(g.vertices)
    b = np.zeros(n + 1)
    b[[g.index(y) for y in problem.boundary]] = (
        phi.values.to_vector(problem.boundary) * problem.boundary_measure()._at(problem.boundary))
    return np.linalg.solve(K, b)[:n]


def _refuse_lu(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense LU run")

    monkeypatch.setattr(np.linalg, "solve", refuse)


def _spy_cg(monkeypatch, steps=None):
    """Record what each ``_jacobi_cg`` call returns; with ``steps``, run it
    with that budget in place of n."""
    seen = []
    cg = solver._jacobi_cg

    def spy(g, b, budget):
        seen.append(cg(g, b, budget if steps is None else steps))
        return seen[-1]

    monkeypatch.setattr(solver, "_jacobi_cg", spy)
    return seen


@pytest.mark.parametrize("n", [1025, 2000])
@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_cg_agrees_with_the_dense_lu(monkeypatch, mode, n):
    problem, phi = _problem(mode, n)
    want = _dense_lu(problem, phi)
    _refuse_lu(monkeypatch)
    sol = gn.solve_direct(problem, phi)
    u = sol.u.to_vector(problem.graph.vertices)
    assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))
    assert max(sol.residual_interior, sol.residual_boundary, abs(sol.centering)) < 1e-12
    assert gn.verify_solution(problem, sol, phi, tol=1e-12).passed


@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_the_dense_lu_keeps_its_bits_at_the_threshold(monkeypatch, mode):
    problem, phi = _problem(mode, solver.DENSE_MAX_N, seed=2)
    seen = _spy_cg(monkeypatch)
    u = gn.solve_direct(problem, phi).u.to_vector(problem.graph.vertices)
    assert seen == [] and np.array_equal(u, _dense_lu(problem, phi))


@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_a_budget_cg_cannot_meet_gives_the_lus_result(monkeypatch, mode):
    problem, phi = _problem(mode, 1025)
    seen = _spy_cg(monkeypatch, steps=1)
    u = gn.solve_direct(problem, phi).u.to_vector(problem.graph.vertices)
    assert seen == [None] and np.array_equal(u, _dense_lu(problem, phi))


def test_data_centered_only_within_tolerance_gives_the_lus_result(monkeypatch):
    # a weighted total of 1e-11 of the data's mass passes the compatibility
    # test, but leaves L u = phi mu inconsistent above CG_RTOL: CG cannot
    # converge, and the LU's Lagrange row absorbs the total
    problem, phi = _problem("measure", 1025)
    mu = problem.boundary_measure().to_vector(problem.boundary)
    values = phi.values.to_vector(problem.boundary)
    values = values + 1e-11 * np.sum(np.abs(values) * mu) / np.sum(mu)
    phi = gn.BoundaryData.for_closure(problem, dict(zip(problem.boundary, values.tolist())))
    assert gn.is_compatible(phi) and gn.check_compatibility(phi) != 0.0
    seen = _spy_cg(monkeypatch)
    u = gn.solve_direct(problem, phi).u.to_vector(problem.graph.vertices)
    assert seen == [None] and np.array_equal(u, _dense_lu(problem, phi))


def test_uncentered_data_gets_the_lus_error(monkeypatch):
    problem, phi = _problem("measure", 1025)
    values = np.abs(phi.values.to_vector(problem.boundary)) + 0.1
    phi = gn.BoundaryData.for_closure(problem, dict(zip(problem.boundary, values.tolist())))
    errors = []
    for limit in (solver.DENSE_MAX_N, problem.graph.n):
        monkeypatch.setattr(solver, "DENSE_MAX_N", limit)
        with pytest.raises(IncompatibleDataError) as exc:
            gn.solve_direct(problem, phi)
        errors.append((str(exc.value), exc.value.context))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_zero_data_gives_zero_with_no_warning(monkeypatch, mode):
    problem, _ = _problem(mode, 1025)
    _refuse_lu(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = gn.solve_direct(problem, {y: 0.0 for y in problem.boundary})
    assert not sol.u.array.any()
    assert sol.residual_interior == sol.residual_boundary == sol.centering == 0.0


def test_cg_holds_a_few_vectors(monkeypatch):
    # the LU held about 2 (n+1)^2 doubles; CG holds its vectors and the
    # temporaries of one CSR product, O(nnz).  The connectivity check, which
    # runs first and holds the CSR arrays as Python lists (about 32 n
    # doubles here), is taken beforehand and not traced
    problem, phi = _problem("measure", 2000)
    g, n = problem.graph, problem.graph.n
    assert gn.is_connected(g)
    monkeypatch.setattr(solver, "is_connected", lambda graph: graph is g)
    _refuse_dense(monkeypatch)
    _refuse_lu(monkeypatch)
    tracemalloc.start()
    try:
        gn.solve_direct(problem, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 8 * n, peak / (8 * n)


@pytest.mark.parametrize("command", [
    ["solve", "--method", "direct", "--interior", "interior.tsv", "--phi", "phi.tsv"],
    ["kernel", "--times", "1"],
], ids=["direct", "kernel"])
def test_a_refused_allocation_is_one_json_error(tmp_path, capsys, monkeypatch, command):
    # numpy's error for a dense n x n array at n = 1e5; raised by the dense
    # step in place of allocating it
    def refuse(*args, **kwargs):
        raise _ArrayMemoryError((100_000, 100_000), np.dtype(float))

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a.endswith(".tsv") else a for a in command]
    rc = main([*argv, "--graph", str(tmp_path / "graph.tsv"),
               "--measure", str(tmp_path / "measure.tsv"), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["code"] == "OutOfMemory"
    assert "Unable to allocate 74.5 GiB" in error["message"]
    assert not out.exists()
