"""The one step from a load to a function of the Laplacian
(``spectral._apply``) and the heat-time integral built on it: its Lanczos
and spectral forms agree, ``heat_time_integral`` keeps the closed form,
``simulate``'s reference is that integral, the Monte Carlo rates are the
boundary load over m, and ``verify`` reads ``--seed`` mod 2^64."""

import json

import numpy as np
import pytest

import gneumann as gn
from gneumann import stochastic
from gneumann.cli import main
from gneumann.solver import _load, _problem
from gneumann.spectral import _apply, _time_integral
from test_krylov import FIXTURES

WEIGHTS = {
    "green": lambda z, gap: 1.0 / z,
    "heat T=0.5": lambda z, gap: _time_integral(z, 0.5),
    "heat T=5": lambda z, gap: _time_integral(z, 5.0),
}


def fixture_problem(name: str, measure_mode: bool):
    """The fixture's closure, or its graph with the closure's boundary
    carrying mu = 0.5 + k / 4, and phi centered against the boundary
    measure."""
    g, interior = FIXTURES[name]
    m = gn.Measure({v: 1.0 + 0.25 * k for k, v in enumerate(g.vertices)})
    prob = gn.closure_subgraph(g, interior, m)
    if measure_mode:
        mu = gn.Measure({y: 0.5 + 0.25 * k for k, y in enumerate(prob.boundary)})
        prob = gn.NeumannProblem(prob.graph, prob.boundary, prob.measure, mu)
    mb = prob.boundary_measure().to_vector(prob.boundary)
    raw = np.linspace(1.0, -1.0, len(prob.boundary))
    return prob, dict(zip(prob.boundary, raw - (raw @ mb) / mb.sum()))


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("measure_mode", [False, True])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_lanczos_and_spectral_steps_agree(name, measure_mode, weight):
    prob, phi = fixture_problem(name, measure_mode)
    g, m = prob.graph, prob.measure
    load = _load(_problem(prob, phi))
    spec = gn.eigendecompose(g, m)
    u_krylov, gap_krylov = _apply(g, m, load, WEIGHTS[weight])
    u_spec, gap_spec = _apply(g, m, load, WEIGHTS[weight], spec)
    assert 0.0 < gap_krylov <= gap_spec == spec.spectral_gap
    assert np.max(np.abs(u_krylov - u_spec)) <= 1e-10 * np.max(np.abs(u_spec))


@pytest.mark.parametrize("T", [0.05, 1.0, 20.0])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_heat_time_integral_keeps_the_closed_form(name, T):
    g, _ = FIXTURES[name]
    m = gn.Measure({v: 1.0 + 0.25 * k for k, v in enumerate(g.vertices)})
    spec = gn.eigendecompose(g, m)
    f = np.cos(np.arange(g.n))
    # every mode, the zero mode's weight T included, in one closed form
    coef = spec.basis.T @ (spec.measure_vector * f)
    weights = np.concatenate([[T], _time_integral(spec.eigenvalues[1:], T)])
    want = spec.basis @ (weights * coef)
    got = gn.heat_time_integral(spec, f, T).to_vector(g.vertices)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t2.0\n3\t0.5\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-2.0\n")
    (tmp_path / "boundary.tsv").write_text("1\n3\n")
    (tmp_path / "mu.tsv").write_text("1\t2.0\n3\t1.0\n")
    return tmp_path


@pytest.mark.parametrize("mode", ["closure", "measure"])
def test_simulate_reference_is_the_heat_time_integral(p3_files, mode):
    d = p3_files
    g = gn.build_graph(["1", "2", "3"], [("1", "2", 1.0), ("2", "3", 1.0)])
    m = gn.Measure({"1": 1.0, "2": 2.0, "3": 0.5})
    files = ["--graph", str(d / "graph.tsv"), "--measure", str(d / "measure.tsv"),
             "--phi", str(d / "phi.tsv")]
    if mode == "closure":
        files += ["--interior", str(d / "interior.tsv")]
        prob = gn.closure_subgraph(g, ["2"], m)
    else:
        files += ["--boundary", str(d / "boundary.tsv"), "--mu", str(d / "mu.tsv")]
        prob = gn.NeumannProblem(g, ["1", "3"], m, gn.Measure({"1": 2.0, "3": 1.0}))
    phi = {"1": 1.0, "3": -2.0}
    T = 1.5
    assert main(["simulate", *files, "--start", "2", "--T", str(T), "--N", "100",
                 "--out", str(d / "sim")]) == 0
    ref = json.loads((d / "sim" / "estimate.json").read_text())["analytic_reference"]
    rates = stochastic._occupation_weights(prob, phi)
    spec = gn.eigendecompose(prob.graph, prob.measure)
    assert ref == pytest.approx(gn.heat_time_integral(spec, rates, T)["2"], abs=1e-10)


@pytest.mark.parametrize("measure_mode", [False, True])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_occupation_weights_are_phi_mu_over_m(name, measure_mode):
    prob, phi = fixture_problem(name, measure_mode)
    g = prob.graph
    mu = prob.boundary_measure()
    want = np.zeros(g.n)
    for y in prob.boundary:
        want[g.index(y)] = phi[y] * mu[y] / prob.measure[y]
    got = stochastic._occupation_weights(prob, phi)
    assert got.tobytes() == want.tobytes()


def test_verify_reads_the_seed_mod_2_64(tmp_path, capsys):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    files = ["--graph", str(tmp_path / "graph.tsv"), "--measure", str(tmp_path / "measure.tsv"),
             "--interior", str(tmp_path / "interior.tsv")]
    reports = []
    for seed in ("-1", str(2**64 - 1)):
        out = tmp_path / f"seed{seed}"
        assert main(["verify", *files, "--seed", seed, "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert capsys.readouterr().err == ""
    assert reports[0] == reports[1]
