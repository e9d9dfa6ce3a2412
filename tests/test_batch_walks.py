"""The batch walker's boundary sum without a mask, the recorded walk's spans
bounded by expected holds, and the estimator's refusals as ``InputError``."""

import json
import multiprocessing

import numpy as np
import pytest

import gneumann as gn
from gneumann import cli, stochastic
from gneumann.errors import InputError
from gneumann.fixtures import path_graph
from instances import random_closure
from test_stochastic import _scalar_integral


def _with_lone_vertex(seed):
    """A random closure's graph plus a vertex "lone" of degree 0, a random
    measure, and weights on it: standard normal on the boundary, -0.0 and
    0.0 on two boundary vertices, and nonzero on "lone", whose hold is
    inf."""
    rng = np.random.default_rng(seed)
    sub = random_closure(rng, n_min=4, n_max=8)
    g = gn.build_graph([*sub.graph.vertices, "lone"], sub.graph.edges())
    m = gn.Measure({x: float(rng.uniform(0.5, 2.0)) for x in g.vertices})
    weights = np.zeros(g.n)
    boundary = [g.index(y) for y in sub.boundary]
    weights[boundary] = rng.standard_normal(len(boundary))
    weights[boundary[0]] = -0.0
    if len(boundary) > 1:
        weights[boundary[1]] = 0.0
    weights[g.index("lone")] = rng.standard_normal()
    return g, m, weights, rng


@pytest.mark.parametrize("start", ["lone", "boundary", "random"])
@pytest.mark.parametrize("seed", [3, 7919])
def test_unmasked_sum_equals_scalar_walk_across_batches(start, seed):
    g, m, weights, rng = _with_lone_vertex(seed)
    chain = stochastic._ChainParams(g, m)
    assert chain.zero_rate  # "lone" takes the hold of inf in every step
    i0 = {"lone": g.index("lone"),
          "boundary": int(np.flatnonzero((weights == 0.0) & np.signbit(weights))[0]),  # -0.0
          "random": int(rng.integers(g.n - 1))}[start]
    T, walk_seed = 0.4, int(rng.integers(2**63))
    batch = stochastic._BATCH
    ref = np.array([_scalar_integral(chain, i0, T, walk_seed, i, weights.tolist())
                    for i in range(batch + 1)])
    if start == "lone":
        assert (ref == weights[i0] * T).all()
    for n in (batch - 1, batch, batch + 1):
        vals = stochastic._walk_paths(chain, i0, T, walk_seed, np.arange(n), weights)
        assert np.array_equal(vals.view(np.uint64), ref[:n].view(np.uint64))


def test_weights_of_signed_zero_leave_every_value_at_plus_zero():
    # every weight 0.0 or -0.0: each path's sum stays +0.0, bit for bit
    g, m, weights, rng = _with_lone_vertex(11)
    weights = np.where(rng.random(g.n) < 0.5, -0.0, 0.0)
    chain = stochastic._ChainParams(g, m)
    vals = stochastic._walk_paths(chain, 0, 3.0, 5, np.arange(500), weights)
    assert np.array_equal(vals.view(np.uint64), np.zeros(500, dtype=np.uint64))


def test_estimate_across_batches_is_the_mean_of_scalar_walks():
    # N crosses _BATCH: the spans' values, joined in order, are the scalar
    # walker's, and the mean and standard error are taken over all of them
    g, m, _, _ = _with_lone_vertex(5)
    boundary = [y for y in g.vertices if y != "lone"][:3]
    problem = gn.NeumannProblem(g, [*boundary, "lone"], m, m)
    phi = {boundary[0]: -0.0, boundary[1]: 1.5, boundary[2]: -2.0, "lone": 0.5}
    weights = stochastic._occupation_weights(problem, phi)
    chain = stochastic._ChainParams(g, m)
    T, N, seed = 0.3, stochastic._BATCH + 3, 17
    i0 = g.index(boundary[1])
    ref = np.array([_scalar_integral(chain, i0, T, seed, i, weights.tolist()) for i in range(N)])
    est = gn.mc_estimate(problem, phi, boundary[1], T, N, seed)
    assert est.value == float(np.mean(ref))
    assert est.stderr == float(np.std(ref, ddof=1) / np.sqrt(N))


def _spied_spans(monkeypatch):
    """The (n, span, holds) arguments of each ``_map_spans`` call, and the
    (lo, hi) of each span walked in this process."""
    calls, walked = [], []
    real = stochastic._map_spans

    def spy(task, n, span, holds):
        calls.append((n, span, holds))

        def recorded(lo, hi):
            walked.append((lo, hi))
            return task(lo, hi)

        return real(recorded, n, span, holds)

    monkeypatch.setattr(stochastic, "_map_spans", spy)
    return calls, walked


@pytest.mark.parametrize("T, N", [(0.01, 20_000), (2.0, 5000), (30.0, 1501), (300.0, 40),
                                  (15_000.0, 2)])
def test_recorded_spans_are_bounded_by_expected_holds(p3_closure, p3_phi, monkeypatch, T, N):
    g, m = p3_closure.graph, p3_closure.measure
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 1)  # spans walked here
    calls, walked = _spied_spans(monkeypatch)
    run = stochastic._estimator(p3_closure, p3_phi, "2", T, N, 5)
    texts = []
    recorded = run(cli._path_rows(g.vertices), texts.append)
    [(n, span, holds)] = calls
    assert n == N and holds == stochastic._expected_holds(g, m, T, N)
    bound = max(1, stochastic._ROWS_HOLDS * N / holds)
    assert 1 <= span <= bound
    assert walked == [(lo, min(N, lo + span)) for lo in range(0, N, span)]
    assert all(hi - lo <= bound for lo, hi in walked)
    assert len(texts) == len(walked)
    # the walk that records nothing takes the estimator's batches
    assert run() == recorded
    assert calls[-1][:2] == (N, stochastic._BATCH)


def test_dump_bytes_with_spans_no_multiple_of_the_workers(p3_files, monkeypatch):
    # P3 at T = 30 expects 41 holds a path: spans of 399 paths, 5 of them
    # for 1800 paths, a multiple of neither 2 nor 3 workers
    T, N = 30.0, 1800
    g = path_graph(3)
    holds = stochastic._expected_holds(g, gn.Measure.uniform(g.vertices), T, N)
    span = max(1, int(stochastic._ROWS_HOLDS * N / holds))
    assert holds >= stochastic._POOL_HOLDS
    for workers in (2, 3):
        spans = -(-N // min(span, -(-N // workers)))
        assert spans % workers != 0
    started = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        started.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(stochastic, "_cpu_count", lambda workers=workers: workers)
        out = p3_files / f"w{workers}"
        rc = cli.main(["simulate", "--graph", str(p3_files / "graph.tsv"),
                       "--measure", str(p3_files / "measure.tsv"),
                       "--interior", str(p3_files / "interior.tsv"),
                       "--phi", str(p3_files / "phi.tsv"), "--start", "2", "--T", repr(T),
                       "--N", str(N), "--seed", "29", "--dump-paths", "--out", str(out)])
        assert rc == 0
        outputs[workers] = (out / "estimate.json").read_bytes(), (out / "paths.csv").read_bytes()
    assert outputs[1] == outputs[2] == outputs[3]
    assert started == ["fork", "fork"]
    assert json.loads(outputs[1][0])["N"] == N
    assert outputs[1][1].decode().splitlines()[-1].startswith(f"{N - 1},")


@pytest.fixture
def p3_files(tmp_path):
    (tmp_path / "graph.tsv").write_text("1\t2\t1.0\n2\t3\t1.0\n")
    (tmp_path / "measure.tsv").write_text("1\t1.0\n2\t1.0\n3\t1.0\n")
    (tmp_path / "interior.tsv").write_text("2\n")
    (tmp_path / "phi.tsv").write_text("1\t1.0\n3\t-1.0\n")
    return tmp_path


@pytest.mark.parametrize("N", [1, 0, -4])
def test_too_few_samples_is_an_input_error(p3_closure, p3_phi, N):
    with pytest.raises(InputError) as exc:
        gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, N, 1)
    assert isinstance(exc.value, ValueError)
    assert exc.value.code == "InputError"
    assert exc.value.context == {"samples": N}


def test_occupation_density_refusals_are_input_errors(p3_closure):
    m = p3_closure.measure
    with pytest.raises(InputError) as exc:
        gn.occupation_density([], 0.5, "2", m)
    assert exc.value.code == "InputError" and exc.value.context == {"paths": 0}
    paths = [gn.sample_path(p3_closure, x, 1.0, (5, 0)) for x in ("2", "2", "1")]
    with pytest.raises(InputError) as exc:
        gn.occupation_density(paths, 0.5, "2", m)
    assert isinstance(exc.value, ValueError)
    assert exc.value.code == "InputError"
    assert exc.value.context == {"start": "2", "other": "1"}
