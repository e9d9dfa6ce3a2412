"""The Green and heat routes without an eigensolve: ``spectral.krylov_apply``
(Lanczos on S = M^-1/2 L M^-1/2) agrees with the spectral sums, bounds the
spectral gap from below, stops early on a desk-sized graph and refuses
what it cannot resolve with a domain error.  The CLI's ``solve`` and
``simulate`` run without ``eigendecompose``, which refuses an overflowing
S instead of letting LAPACK fail."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gneumann as gn
import gneumann.cli
import gneumann.spectral
from gneumann.cli import main
from gneumann.errors import DisconnectedClosureError, GneumannError, IllConditionedError
from gneumann.fixtures import complete_graph, cycle_graph, path_graph, star_graph
from gneumann.solver import _finish, _problem

ROUTES = {
    "green": lambda prob, phi, spec: gn.solve_green(prob, phi, spec),
    "heat-integral": lambda prob, phi, spec: gn.solve_heat_integral(prob, phi, spec, tol=1e-12),
}

# P3 whose S overflows: LAPACK's eigh failed on it with "Eigenvalues did not converge"
OVERFLOW_EDGES = "0\t1\t1.4445613716353908e+226\n1\t2\t1.7e+308\n"
OVERFLOW_MASSES = "0\t8.598417005708887e-182\n1\t1\n2\t1\n"


def random_problem(seed: int, measure_mode: bool, decades: float):
    """A random connected graph of 2-8 vertices with weights 10^U(-d, d) and
    masses and mu 10^U(-d/2, d/2), as a closure or a boundary-measure
    problem, with phi centered against mu; None if the closure splits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    names = [str(i) for i in range(n)]
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    g = gn.build_graph(names, [(names[i], names[j], 10.0 ** rng.uniform(-decades, decades))
                               for i, j in sorted(pairs)])
    m = gn.Measure({v: 10.0 ** rng.uniform(-decades / 2, decades / 2) for v in names})
    if measure_mode:
        k = int(rng.integers(1, n + 1))
        boundary = [names[i] for i in rng.choice(n, size=k, replace=False)]
        mu = gn.Measure({v: 10.0 ** rng.uniform(-decades / 2, decades / 2) for v in boundary})
        prob = gn.NeumannProblem(g, boundary, m, mu)
    else:
        interior = [names[i] for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False)]
        try:
            prob = gn.closure_subgraph(g, interior, m)
        except DisconnectedClosureError:
            return None
    raw = rng.standard_normal(len(prob.boundary))
    mb = prob.boundary_measure().to_vector(prob.boundary)
    return prob, dict(zip(prob.boundary, raw - (raw @ mb) / mb.sum()))


def outcome(route, prob, phi, spec):
    try:
        return route(prob, phi, spec).u.to_vector(prob.graph.vertices)
    except GneumannError as e:
        return type(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(sorted(ROUTES)))
def test_krylov_and_spectral_routes_agree(seed, measure_mode, name):
    # weights over four decades and masses over two: on problems conditioned
    # far worse both routes can pass the residual gate further apart
    made = random_problem(seed, measure_mode, 2.0)
    if made is None:
        return
    prob, phi = made
    route = ROUTES[name]
    krylov = outcome(route, prob, phi, None)
    spectral = outcome(route, prob, phi, gn.eigendecompose(prob.graph, prob.measure))
    if isinstance(krylov, np.ndarray) and isinstance(spectral, np.ndarray):
        scale = max(1.0, float(np.max(np.abs(spectral))))
        assert float(np.max(np.abs(krylov - spectral))) <= 1e-10 * scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(sorted(ROUTES)),
       st.sampled_from([8.0, 16.0, 64.0, 300.0]))
def test_krylov_refusal_is_a_domain_error(seed, measure_mode, name, decades):
    made = random_problem(seed, measure_mode, decades)
    if made is None:
        return
    u = outcome(ROUTES[name], *made, None)  # any other exception fails the test
    assert isinstance(u, type) or np.isfinite(u).all()


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    (tmp_path / "boundary.tsv").write_text("1\n3\n")
    (tmp_path / "mu.tsv").write_text("1\t2.0\n3\t2.0\n")
    return tmp_path


@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_cli_solves_and_simulate_need_no_eigendecompose(p3_files, monkeypatch, mode):
    def refuse(*args):
        raise AssertionError("eigendecompose called")

    monkeypatch.setattr(gneumann.spectral, "eigendecompose", refuse)
    monkeypatch.setattr(gneumann.cli, "eigendecompose", refuse)
    d = p3_files
    files = ["--graph", str(d / "graph.tsv"), "--measure", str(d / "measure.tsv"),
             "--phi", str(d / "phi.tsv")]
    files += (["--interior", str(d / "interior.tsv")] if mode == "closure" else
              ["--boundary", str(d / "boundary.tsv"), "--mu", str(d / "mu.tsv")])
    for method in ("green", "heat-integral"):
        assert main(["solve", *files, "--method", method, "--out", str(d / method)]) == 0
        rows = (d / method / "solution.csv").read_text().split()[1:]
        u = dict(line.split(",")[:2] for line in rows)
        want = 1.0 if mode == "closure" else 2.0
        assert float(u["1"]) == pytest.approx(want, abs=1e-9)
    assert main(["simulate", *files, "--start", "2", "--T", "1", "--N", "100",
                 "--out", str(d / "sim")]) == 0
    estimate = json.loads((d / "sim" / "estimate.json").read_text())
    assert math.isfinite(estimate["analytic_reference"])


FIXTURES = {
    "path": (path_graph(6), ["2", "3", "4", "5"]),
    "cycle": (cycle_graph(7), ["1", "2", "3"]),
    "complete": (complete_graph(5), ["1", "2"]),
    "star": (star_graph(4, 2.0), ["center"]),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_gap_bound_and_horizon_on_the_fixtures(name):
    g, interior = FIXTURES[name]
    m = gn.Measure({v: 1.0 + 0.25 * k for k, v in enumerate(g.vertices)})
    sub = gn.closure_subgraph(g, interior, m)
    mb = sub.boundary_measure().to_vector(sub.boundary)
    raw = np.linspace(1.0, -1.0, len(sub.boundary))
    phi = dict(zip(sub.boundary, raw - (raw @ mb) / mb.sum()))
    spec = gn.eigendecompose(sub.graph, sub.measure)
    load = np.zeros(sub.graph.n)
    load[sub.boundary_index] = np.array([phi[y] for y in sub.boundary]) * mb
    _, gap = gn.krylov_apply(sub.graph, sub.measure, load, lambda z, gap: 1.0 / z)
    assert 0.0 < gap <= spec.spectral_gap
    krylov = gn.solve_heat_integral(sub, phi, tol=1e-10)
    spectral = gn.solve_heat_integral(sub, phi, spec, tol=1e-10)
    assert krylov.truncation_horizon >= spectral.truncation_horizon


def desk_sized_problem(n=2000, seed=5):
    """A random recursive tree plus about 2n extra edges, weights and
    masses U(0.5, 2), and 200 boundary vertices with their own mu."""
    rng = np.random.default_rng(seed)
    i = np.concatenate([(rng.random(n - 1) * np.arange(1, n)).astype(np.int64),
                        rng.integers(0, n, 2 * n)])
    j = np.concatenate([np.arange(1, n), rng.integers(0, n, 2 * n)])
    pairs = np.unique(np.sort(np.stack([i, j], axis=1)[i != j], axis=1), axis=0)
    names = [str(v) for v in range(n)]
    g = gn.build_graph(names, arrays=(pairs[:, 0], pairs[:, 1], rng.uniform(0.5, 2.0, len(pairs))))
    m = gn.Measure.from_vector(names, rng.uniform(0.5, 2.0, n))
    boundary = np.sort(rng.choice(n, size=200, replace=False))
    mu = rng.uniform(0.5, 2.0, 200)
    raw = rng.standard_normal(200)
    load = np.zeros(n)
    load[boundary] = (raw - (raw @ mu) / mu.sum()) * mu
    return g, m, load


def test_lanczos_stops_early_and_holds_no_n_by_n_array():
    g, m, load = desk_sized_problem()
    steps = []

    def fun(z, gap):
        steps.append(len(z))
        return 1.0 / z

    tracemalloc.start()
    try:
        u, gap = gn.krylov_apply(g, m, load, fun)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps[-1] <= 200
    assert peak < 8 * g.n * g.n / 4, peak / (8 * g.n * g.n)
    # the Green solution: L u = load, centered in m
    assert np.max(np.abs(gn.formal_laplacian(g, m, gn.VertexFunction.from_vector(g.vertices, u))
                         .to_vector(g.vertices) * m.to_vector(g.vertices) - load)) < 1e-10
    assert abs(float(np.sum(u * m.to_vector(g.vertices)))) < 1e-10
    assert gap > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
def test_eigendecompose_refuses_an_overflowing_s(tmp_path):
    (tmp_path / "graph.tsv").write_text(OVERFLOW_EDGES)
    (tmp_path / "measure.tsv").write_text(OVERFLOW_MASSES)
    g = gn.fileio.read_graph(tmp_path / "graph.tsv")
    m = gn.fileio.read_measure(tmp_path / "measure.tsv")
    with pytest.raises(IllConditionedError, match="overflows"):
        gn.eigendecompose(g, m)
    with pytest.raises(IllConditionedError, match="Lanczos step 1 is not finite"):
        gn.krylov_apply(g, m, np.array([1.0, 0.0, -1.0]), lambda z, gap: 1.0 / z)


def test_eigendecompose_turns_a_lapack_failure_into_ill_conditioning(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    g = path_graph(3)
    with pytest.raises(IllConditionedError, match="did not converge"):
        gn.eigendecompose(g, gn.Measure.uniform(g.vertices))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
@pytest.mark.parametrize("command", [
    ["kernel", "--times", "1"],
    ["solve", "--method", "green", "--interior", "interior.tsv", "--phi", "phi.tsv"],
    ["solve", "--method", "heat-integral", "--interior", "interior.tsv", "--phi", "phi.tsv"],
    ["simulate", "--interior", "interior.tsv", "--phi", "phi.tsv", "--start", "1", "--T", "1"],
], ids=["kernel", "green", "heat-integral", "simulate"])
def test_an_overflowing_s_is_one_ill_conditioned_error(tmp_path, capsys, command):
    (tmp_path / "graph.tsv").write_text(OVERFLOW_EDGES)
    (tmp_path / "measure.tsv").write_text(OVERFLOW_MASSES)
    (tmp_path / "interior.tsv").write_text("1\n")
    (tmp_path / "phi.tsv").write_text("0\t1.0\n2\t-8.598417005708887e-182\n")  # centered
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a.endswith(".tsv") else a for a in command]
    rc = main([*argv, "--graph", str(tmp_path / "graph.tsv"),
               "--measure", str(tmp_path / "measure.tsv"), "--out", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["code"] == "IllConditioned"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
@pytest.mark.parametrize("w, u, what, vertex", [
    (1.0, (math.nan, 0.0, 0.0), "u", "1"),
    # L u overflows at vertices 2 and 1, first in the closure's order (the
    # interior first); u is finite
    (1.0, (1.7e308, -1.7e308, 0.0), "residual", "2"),
])
def test_gate_names_what_is_not_finite(w, u, what, vertex):
    g = gn.build_graph(["1", "2", "3"], [("1", "2", w), ("2", "3", w)])
    sub = gn.closure_subgraph(g, ["2"], gn.Measure.uniform(g.vertices))
    problem = _problem(sub, {"1": 1e308, "3": -1e308})
    uvec = gn.VertexFunction(dict(zip("123", u))).to_vector(sub.closure)
    with pytest.raises(IllConditionedError, match=f"the {what} at vertex '{vertex}'") as exc:
        _finish(problem, uvec, "direct")
    assert exc.value.context["not_finite"] == what
    assert exc.value.code == "IllConditioned"


def test_overflowing_direct_solution_names_its_rounding_floor(p3_closure):
    # u = (1e308, 0, -1e308) has a zero residual at vertex 2, but its floor
    # |L| |u| overflows
    with pytest.raises(IllConditionedError) as exc:
        gn.solve_direct(p3_closure, {"1": 1e308, "3": -1e308})
    assert exc.value.context["not_finite"] == "rounding floor"
    assert exc.value.context["vertex"] == "2"


@pytest.mark.parametrize("route", ["direct", "green"])
def test_a_load_far_below_the_masses_is_solved(route):
    # m = 1e300 and mu = 1e-200: M^-1/2 (phi mu) underflows unless Lanczos
    # scales its start vector, and m / mu overflows, which made the gate's
    # tolerance 0 * inf = nan
    g = path_graph(3)
    prob = gn.NeumannProblem(g, ["1", "3"], gn.Measure.uniform(g.vertices, 1e300),
                             gn.Measure({"1": 1e-200, "3": 1e-200}))
    phi = {"1": 1.0, "3": -1.0}
    u = (gn.solve_direct(prob, phi) if route == "direct" else gn.solve_green(prob, phi)).u
    assert u.to_vector(g.vertices) == pytest.approx([1e-200, 0.0, -1e-200], rel=1e-12, abs=1e-215)
