"""The direct route fills its augmented system from the CSR arrays, and the
verify battery applies L to matrices through them: no dense Laplacian is
formed, the direct solution keeps the dense system's bits, and the route
holds one (n+1) x (n+1) array of its own.  Also the two CLI breaks of a
huge spectral gap: a verify suite whose error is not finite, and the heat
route's mixing bound."""

import csv
import functools
import json
import tracemalloc

import numpy as np
import pytest

import gneumann as gn
from gneumann.cli import main
from gneumann.forms import _laplacian
from gneumann.spectral import green_kernel, heat_kernel
from gneumann.verification import run_all_suites
from instances import random_centered_phi, random_closure, random_measure


def _refuse_dense(monkeypatch):
    """Reading ``laplacian_matrix`` raises; its function may still fill an
    array the caller holds, which is what ``laplacian_into`` does."""
    func = vars(gn.WeightedGraph)["laplacian_matrix"].func

    def fill_only(self, out=None):
        if out is None:
            raise AssertionError("dense Laplacian formed")
        return func(self, out)

    refused = functools.cached_property(fill_only)
    refused.__set_name__(gn.WeightedGraph, "laplacian_matrix")
    monkeypatch.setattr(gn.WeightedGraph, "laplacian_matrix", refused)


def _sparse_graph(rng, n):
    """A random recursive tree (each vertex joined to an earlier one) plus
    about 2n random edges, weights in [0.5, 2]; built from arrays."""
    i = np.concatenate([(rng.random(n - 1) * np.arange(1, n)).astype(int), rng.integers(0, n, 2 * n)])
    j = np.concatenate([np.arange(1, n), rng.integers(0, n, 2 * n)])
    pairs = np.unique(np.sort(np.stack([i, j], 1)[i != j], 1), axis=0)
    return gn.build_graph([str(v) for v in range(n)],
                          arrays=(pairs[:, 0], pairs[:, 1], rng.uniform(0.5, 2.0, len(pairs))))


def _measure_problem(rng, n, k):
    """The boundary-measure problem on a random sparse graph: k boundary
    vertices anywhere, with a mu unrelated to m, and phi centered against mu."""
    g = _sparse_graph(rng, n)
    m = random_measure(rng, g.vertices)
    boundary = [g.vertices[i] for i in sorted(rng.choice(n, size=k, replace=False).tolist())]
    mu = gn.Measure({y: float(rng.uniform(0.1, 5.0)) for y in boundary})
    problem = gn.NeumannProblem(g, boundary, m, mu)
    raw = rng.standard_normal(k)
    muv = mu.to_vector(boundary)
    raw -= (raw @ muv) / muv.sum()
    return problem, gn.BoundaryData.for_closure(problem, dict(zip(boundary, raw.tolist())))


def _closure_problem(rng, n, n_interior):
    """The closure of the first n_interior vertices of a random sparse
    graph: a subtree of its recursive tree, so the closure is connected."""
    g = _sparse_graph(rng, n)
    sub = gn.closure_subgraph(g, g.vertices[:n_interior], random_measure(rng, g.vertices))
    return sub, random_centered_phi(rng, sub)


def _problems(seed):
    rng = np.random.default_rng(seed)
    return {"closure": _closure_problem(rng, 30, 20), "measure": _measure_problem(rng, 30, 6)}


@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_solve_direct_forms_no_dense_laplacian(monkeypatch, mode):
    problem, phi = _problems(0)[mode]
    _refuse_dense(monkeypatch)
    sol = gn.solve_direct(problem, phi)
    assert gn.verify_solution(problem, sol, phi).passed


def test_laplacian_into_fills_a_view_with_the_cached_bits():
    g = _sparse_graph(np.random.default_rng(1), 40)
    K = np.zeros((g.n + 1, g.n + 1))
    assert g.laplacian_into(K[:g.n, :g.n]).base is K
    assert "laplacian_matrix" not in vars(g)
    assert np.array_equal(K[:g.n, :g.n], g.laplacian_matrix) and not K[g.n].any() and not K[:, g.n].any()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_solve_direct_has_the_dense_systems_bits(seed, mode):
    # the same doubles in the same places: LAPACK gets the same matrix
    problem, phi = _problems(seed)[mode]
    g, n = problem.graph, problem.graph.n
    mv = problem.measure.to_vector(g.vertices)
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = g.laplacian_matrix
    K[:n, n] = K[n, :n] = mv
    b = np.zeros(n + 1)
    bidx = [g.index(y) for y in problem.boundary]
    b[bidx] = phi.values.to_vector(problem.boundary) * problem.boundary_measure()._at(problem.boundary)
    want = np.linalg.solve(K, b)[:n]
    got = gn.solve_direct(problem, phi).u.to_vector(g.vertices)
    assert np.array_equal(got, want)


def test_solve_direct_holds_one_augmented_array(monkeypatch):
    # the dense route held L besides K, about 2.03 (n+1)^2 doubles; the
    # LU's own copy of K is LAPACK's work buffer and not traced
    problem, phi = _measure_problem(np.random.default_rng(600), 600, 40)
    n = problem.graph.n
    _refuse_dense(monkeypatch)
    tracemalloc.start()
    try:
        gn.solve_direct(problem, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (n + 1) ** 2, peak / (8 * (n + 1) ** 2)


@pytest.mark.parametrize("seed", range(5))
def test_laplacian_of_a_matrix_has_each_columns_bits(seed):
    rng = np.random.default_rng(seed)
    g = _sparse_graph(rng, 50)
    F = rng.standard_normal((g.n, 7)) * 10.0 ** rng.integers(-5, 5, 7)
    got = _laplacian(g, F)
    for k in range(F.shape[1]):
        assert np.array_equal(got[:, k], _laplacian(g, F[:, k]))
    L = g.laplacian_matrix
    assert np.all(np.abs(got - L @ F) <= 1e-13 * (np.abs(L) @ np.abs(F)))
    assert np.array_equal(_laplacian(g, np.ones((g.n, 3))), np.zeros((g.n, 3)))


def _dense_suites(spec):
    """heat_equation and green_identity as the dense Laplacian gave them."""
    mv = spec.measure_vector
    L = spec.graph.laplacian_matrix
    t = 1.0 / float(spec.eigenvalues[-1])
    h = t / 50.0
    target = -(L / mv[:, None]) @ heat_kernel(spec, t).entries
    errors = [float(np.max(np.abs((heat_kernel(spec, t + s).entries - heat_kernel(spec, t - s).entries)
                                  / (2 * s) - target))) for s in (h, h / 2)]
    lap = (L @ green_kernel(spec).entries) / mv[:, None]
    green = float(np.max(np.abs(lap - (np.diag(1.0 / mv) - 1.0 / spec.measure.total))))
    return errors, float(np.max(np.abs(target))), green, float(np.max(np.abs(lap)))


@pytest.mark.parametrize("seed", range(4))
def test_verify_battery_applies_the_laplacian_through_csr(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    sub = random_closure(rng, n_min=8, n_max=12)
    spec = gn.eigendecompose(sub.graph, sub.measure)
    errors, heat_scale, green, green_scale = _dense_suites(spec)
    _refuse_dense(monkeypatch)
    report = run_all_suites(sub, seed=seed)
    assert report["passed"]
    # each error is a difference against L applied to a kernel, which moved
    # at roundoff: within 1e-12 of the size of that product
    heat = report["suites"]["heat_equation"]
    assert np.allclose(heat["errors"], errors, rtol=0.0, atol=1e-12 * heat_scale)
    assert heat["ratio"] == heat["errors"][0] / heat["errors"][1]
    assert abs(report["suites"]["green_identity"]["max_error"] - green) <= 1e-12 * green_scale


def _write(d, files):
    for name, text in files.items():
        (d / name).write_text(text)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_writes_a_strict_report_when_a_suite_error_is_not_finite(tmp_path, capsys):
    # m = 1e-200 makes lambda_max about 1.5e200: heat_equation's step t/50
    # at t = 1/lambda_max is about 1e-202, and its finite differences
    # overflow; the suite fails and the report stays strict JSON
    _write(tmp_path, {"graph.tsv": "0\t1\t1.5323004553528\n", "measure.tsv": "0\t1.169\n1\t1e-200\n",
                      "interior.tsv": "0\n", "phi.tsv": "1\t0.0\n"})
    out = tmp_path / "out"
    rc = main(["verify", *(f"--{k}={tmp_path / k}.tsv" for k in ("graph", "measure", "interior", "phi")),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["passed"] is False
    heat = report["suites"]["heat_equation"]
    assert heat["passed"] is False
    assert isinstance(heat["max_error"], str)

    # the library's report keeps the float; only the written file has the string
    g = gn.build_graph(["0", "1"], [("0", "1", 1.5323004553528)])
    sub = gn.closure_subgraph(g, ["0"], gn.Measure({"0": 1.169, "1": 1e-200}))
    with np.errstate(over="ignore", invalid="ignore"):
        heat = run_all_suites(sub, phi={"1": 0.0})["suites"]["heat_equation"]
    assert heat["passed"] is False
    assert isinstance(heat["max_error"], float) and not np.isfinite(heat["max_error"])


def test_every_route_solves_a_path_with_a_huge_spectral_gap(tmp_path):
    # P3 with weights 1e13: the gap is 1e13, and e^{gap * 1e-9} overflowed
    # the heat route's mixing bound; it is now taken from t0 = 1/gap
    _write(tmp_path, {"graph.tsv": "1\t2\t1e13\n2\t3\t1e13\n", "measure.tsv": "1\t1.0\n2\t1.0\n3\t1.0\n",
                      "interior.tsv": "2\n", "phi.tsv": "1\t1.0\n3\t-1.0\n"})
    flags = [f"--{k}={tmp_path / k}.tsv" for k in ("graph", "measure", "interior", "phi")]
    u = {}
    for method in ("direct", "green", "heat-integral"):
        out = tmp_path / method
        assert main(["solve", *flags, "--method", method, "--out", str(out)]) == 0
        with open(out / "solution.csv", newline="") as fh:
            u[method] = {row["vertex"]: float(row["u"]) for row in csv.DictReader(fh)}
    # u is +-1e-13 at the ends: the routes agree to a few units in its last place
    for method in ("green", "heat-integral"):
        assert all(abs(u[method][x] - u["direct"][x]) <= 1e-28 for x in "123"), u

    g = gn.build_graph(["1", "2", "3"], [("1", "2", 1e13), ("2", "3", 1e13)])
    sub = gn.closure_subgraph(g, ["2"], gn.Measure.uniform(g.vertices))
    phi = {"1": 1.0, "3": -1.0}
    spec = gn.eigendecompose(sub.graph, sub.measure)
    assert np.allclose(gn.solve_heat_integral(sub, phi, spec).u.array,
                       gn.solve_direct(sub, phi).u.array, rtol=0.0, atol=1e-28)
