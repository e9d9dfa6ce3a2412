"""``simulate --dump-paths`` walks each path once, in the batch walker, and
writes the bytes of the per-path dump; walks that cannot end are refused."""

import json
import math
import multiprocessing
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import gneumann as gn
from gneumann import cli, fileio, stochastic
from gneumann.errors import IllConditionedError, NonpositiveHorizonError
from instances import random_centered_phi, random_closure, run_cli, run_python

HEADER = "path_id,step,state,holding_time\n"


def _reference_rows(g, m, start, T, N, seed) -> str:
    """The dump path by path: each path simulated alone by the scalar
    walker (``sample_paths``), each hold a row of ``fmt`` cells."""
    cells = {x: fileio._csv_cell(x) for x in g.vertices}
    lines = []
    for i, path in enumerate(gn.sample_paths(g, m, start, T, seed, range(N))):
        for step, (state, hold) in enumerate(zip(path.states, path.holding_times)):
            lines.append(f"{i},{step},{cells[state]},{fileio.fmt(hold)}\n")
    return "".join(lines)


def _write_closure(d: Path, sub, phi, names: dict) -> None:
    """The closure graph, its measure, interior and phi as input files,
    each vertex x renamed names[x]; the closure of this graph on the same
    interior is the closure itself."""
    g = sub.graph
    (d / "graph.tsv").write_text("".join(f"{names[x]}\t{names[y]}\t{w!r}\n"
                                         for x, y, w in g.edges()), encoding="utf-8")
    (d / "measure.tsv").write_text("".join(f"{names[x]}\t{sub.measure[x]!r}\n"
                                           for x in g.vertices), encoding="utf-8")
    (d / "interior.tsv").write_text("".join(f"{names[x]}\n" for x in sub.interior),
                                    encoding="utf-8")
    (d / "phi.tsv").write_text("".join(f"{names[y]}\t{v!r}\n"
                                       for y, v in phi.values.values.items()), encoding="utf-8")


def _loaded(d: Path):
    """The closure as the CLI loads it from the files."""
    g = fileio.read_graph(d / "graph.tsv")
    m = fileio.read_measure(d / "measure.tsv")
    sub = gn.closure_subgraph(g, fileio.read_vertex_set(d / "interior.tsv"), m)
    phi = gn.BoundaryData.for_closure(sub, fileio.read_vertex_function(d / "phi.tsv"))
    return sub, phi


def _simulate(d: Path, out: Path, start: str, T: float, N: int, seed: int, cpus: int):
    """paths.csv and estimate.json of ``simulate --dump-paths`` with
    ``cpus`` CPUs, every job large enough for a pool; and the start
    methods of the pools that started."""
    started = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        started.append(method)
        return get_context(method)

    with mock.patch.object(stochastic, "_cpu_count", lambda: cpus), \
            mock.patch.object(stochastic, "_POOL_HOLDS", 0), \
            mock.patch.object(multiprocessing, "get_context", spy):
        rc = cli.main(["simulate", "--graph", str(d / "graph.tsv"),
                       "--measure", str(d / "measure.tsv"),
                       "--interior", str(d / "interior.tsv"), "--phi", str(d / "phi.tsv"),
                       "--start", start, "--T", repr(T), "--N", str(N), "--seed", str(seed),
                       "--dump-paths", "--out", str(out)])
    assert rc == 0
    return (out / "paths.csv").read_bytes(), json.loads((out / "estimate.json").read_text()), \
        started


def _check_dump(d: Path, start: str, T: float, N: int, seed: int) -> None:
    """The dump on 1, 2 and 3 CPUs against the per-path reference, and
    its estimate against ``mc_estimate``."""
    sub, phi = _loaded(d)
    ref = (HEADER + _reference_rows(sub.graph, sub.measure, start, T, N, seed)).encode()
    est = gn.mc_estimate(sub, phi, start, T, N, seed)
    for cpus in (1, 2, 3):
        dump, report, pools = _simulate(d, d / f"out{cpus}", start, T, N, seed, cpus)
        assert dump == ref
        assert (report["value"], report["stderr"]) == (est.value, est.stderr)
        assert pools == (["fork"] if cpus > 1 else [])


# span edges: the recording span (256 paths), twice it, and the estimator's
# batch (4096)
@pytest.mark.parametrize("N", [255, 256, 257, 511, 512, 513, 4095, 4096, 4097])
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.05, max_value=1.0),
       st.integers(min_value=-(2**63), max_value=2**64 - 1))
def test_dump_matches_the_per_path_reference(N, instance_seed, T, seed):
    rng = np.random.default_rng(instance_seed)
    sub = random_closure(rng, n_min=3, n_max=8)
    phi = random_centered_phi(rng, sub)
    # ids that csv.writer quotes: a comma, a quote, both
    names = {x: x for x in sub.graph.vertices}
    for x, name in zip(sub.graph.vertices, ["a,b", 'q"x', '"c,d"']):
        names[x] = name
    start = names[sub.graph.vertices[int(rng.integers(sub.graph.n))]]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        _write_closure(d, sub, phi, names)
        _check_dump(d, start, T, N, seed)


def test_dump_of_a_horizon_hit_by_a_partial_sum(p3_closure, p3_phi, tmp_path):
    # T equal to a float partial sum t + h at which (t + h) - t != h: the
    # walk that reaches T exactly ends there, its last hold as drawn
    g, m = p3_closure.graph, p3_closure.measure
    chain = stochastic._ChainParams(g, m)
    index, T = next((i, t + h) for i in range(100)
                    for t, h in _partial_sums(chain, g.index("2"), 11, i)
                    if (t + h) - t != h)
    path = gn.sample_path_graph(g, m, "2", T, (11, index))
    assert _float_sum(path.holding_times) == T
    _write_closure(tmp_path, p3_closure, p3_phi, {x: x for x in g.vertices})
    _check_dump(tmp_path, "2", T, 600, 11)


def _partial_sums(chain, i0, seed, index):
    """(t, h) for each hold h of a long walk but the last, t the float sum
    of the holds before it."""
    _, holds = stochastic._walk(chain, i0, 50.0, stochastic._stream_rng(seed, index))
    t = 0.0
    for h in holds[:-1]:
        yield t, h
        t += h


def _float_sum(holds) -> float:
    t = 0.0
    for h in holds.tolist():
        t += h
    return t


def test_dump_from_a_degree_zero_start(monkeypatch):
    # a start without neighbours holds forever: one row per path, hold inf
    g = gn.build_graph(["a", "b", "c,d"], [("a", "b", 1.0)])
    m = gn.Measure.uniform(g.vertices)
    ref = _reference_rows(g, m, "c,d", 1.5, 513, 3)
    assert ref.splitlines()[-1] == '512,0,"c,d",inf'
    monkeypatch.setattr(stochastic, "_POOL_HOLDS", 0)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(stochastic, "_cpu_count", lambda cpus=cpus: cpus)
        run = stochastic._estimator(gn.NeumannProblem(g, ["c,d", "a"], m, m),
                                    {"c,d": 2.0, "a": 1.0}, "c,d", 1.5, 513, 3)
        texts = []
        est = run(cli._path_rows(g.vertices), texts.append)
        assert "".join(texts) == ref
        assert (est.value, est.stderr) == (3.0, 0.0)


@pytest.mark.parametrize("cpus", [1, 2])
def test_dump_of_paths_that_outlive_a_refill(p3_closure, p3_phi, monkeypatch, cpus):
    # each path's record spans several refills of the batch walker, which
    # the recorder joins path by path
    g, m = p3_closure.graph, p3_closure.measure
    T, N, seed = 300.0, 3, 5
    ref = _reference_rows(g, m, "2", T, N, seed)
    holds = np.bincount([int(row.split(",")[0]) for row in ref.splitlines()])
    assert holds.min() > 2 * (2 * stochastic._MAX_BLOCKS)  # steps per refill of 3 paths
    monkeypatch.setattr(stochastic, "_POOL_HOLDS", 0)
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: cpus)
    run = stochastic._estimator(p3_closure, p3_phi, "2", T, N, seed)
    texts = []
    est = run(cli._path_rows(g.vertices), texts.append)
    assert "".join(texts) == ref
    assert est == gn.mc_estimate(p3_closure, p3_phi, "2", T, N, seed)


# the CLI as a grandchild on one CPU, and the exit code and max RSS (kB)
# that os.wait4 reports for it: a child of this process would inherit its
# high-water mark through exec, and a small Python between them does not
_MAX_RSS = """\
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "gneumann.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_dump_of_few_long_paths_holds_little_memory(tmp_path, p3_closure, p3_phi):
    # two paths of about 27k holds each: one span, walked in the CLI process
    _write_closure(tmp_path, p3_closure, p3_phi, {x: x for x in p3_closure.graph.vertices})

    def max_rss(T: str) -> int:
        proc = run_python(["-c", _MAX_RSS, "simulate", "--graph", str(tmp_path / "graph.tsv"),
                           "--measure", str(tmp_path / "measure.tsv"),
                           "--interior", str(tmp_path / "interior.tsv"),
                           "--phi", str(tmp_path / "phi.tsv"), "--start", "2", "--T", T,
                           "--N", "2", "--dump-paths", "--out", str(tmp_path / f"T{T}")])
        rc, rss = map(int, proc.stdout.split())
        assert rc == 0, proc.stderr
        return rss

    base = max_rss("1")
    excess = max_rss("20000") - base
    with open(tmp_path / "T20000" / "paths.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) > 50_000
    assert excess < 12 * 1024


def test_dump_with_an_infinite_horizon_is_rejected(tmp_path, p3_closure, p3_phi):
    _write_closure(tmp_path, p3_closure, p3_phi, {x: x for x in p3_closure.graph.vertices})
    proc = run_cli(["simulate", "--graph", str(tmp_path / "graph.tsv"),
                     "--measure", str(tmp_path / "measure.tsv"),
                     "--interior", str(tmp_path / "interior.tsv"),
                     "--phi", str(tmp_path / "phi.tsv"), "--start", "2", "--T", "inf",
                     "--N", "2", "--dump-paths"], tmp_path / "sim")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["code"] == "NonpositiveHorizon"
    assert err["context"]["horizon"] == "inf"
    assert not (tmp_path / "sim").exists()


@pytest.fixture
def star_files(tmp_path):
    """A star of 10 leaves with weight 1e200 and unit measure: its spectrum
    is finite, but a walk to T = 1 takes about 1e201 holds."""
    leaves = [str(i) for i in range(10)]
    (tmp_path / "graph.tsv").write_text("".join(f"h\t{y}\t1e200\n" for y in leaves))
    (tmp_path / "measure.tsv").write_text("".join(f"{x}\t1.0\n" for x in ["h", *leaves]))
    (tmp_path / "interior.tsv").write_text("h\n")
    (tmp_path / "phi.tsv").write_text("".join(f"{y}\t{1.0 if y == '0' else 0.0}\n"
                                              for y in leaves))
    return tmp_path


@pytest.mark.parametrize("dump", [[], ["--dump-paths"]])
def test_simulate_refuses_a_walk_that_cannot_end(star_files, dump):
    d = star_files
    proc = run_cli(["simulate", "--graph", str(d / "graph.tsv"),
                     "--measure", str(d / "measure.tsv"), "--interior", str(d / "interior.tsv"),
                     "--phi", str(d / "phi.tsv"), "--start", "h", "--T", "1", "--N", "100",
                     *dump], d / "sim")
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["code"] == "IllConditioned"
    assert err["context"]["horizon"] == 1.0
    assert err["context"]["rate"] > 2.0**52
    assert not (d / "sim").exists()
    # the spectral reference alone would not refuse this graph
    spec = gn.eigendecompose(fileio.read_graph(d / "graph.tsv"),
                             fileio.read_measure(d / "measure.tsv"))
    assert np.isfinite(spec.eigenvalues).all()


def _two_edges(w: float, m: float):
    # two separate edges: every degree is w, their sum 4 w
    g = gn.build_graph(["a", "b", "c", "d"], [("a", "b", w), ("c", "d", w)])
    return g, gn.Measure.uniform(g.vertices, m)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the overflows are the point
@pytest.mark.parametrize("g_m, T, rate", [
    (_two_edges(1.0, 1.0), 2.0**52, 1.0),  # T * rate reaches 2^52
    (_two_edges(1.0, 2.0), 2.0**53, 0.5),
    (_two_edges(1.0, 5e-324), 1.0, math.inf),  # a rate that is not finite
    (_two_edges(1e308, 1e300), 1.0, 1e308 / 1e300),  # finite rates, infinite expected holds
])
def test_walks_that_cannot_end_are_refused_before_walking(g_m, T, rate):
    g, m = g_m
    with pytest.raises(IllConditionedError) as e:
        gn.sample_paths(g, m, "a", T, 0, range(2))
    assert e.value.context == {"rate": rate, "horizon": T}
    with pytest.raises(IllConditionedError) as e:
        gn.mc_estimate_measure(g, ["b"], m, m, {"b": 1.0}, "a", T, 2, 0)
    assert e.value.context == {"rate": rate, "horizon": T}


def test_the_longest_walk_that_can_end_is_accepted():
    # the check is eager and the walk lazy: nothing is walked here
    g, m = _two_edges(1.0, 1.0)
    gn.sample_paths(g, m, "a", np.nextafter(2.0**52, 0.0), 0, range(2))
    with pytest.raises(NonpositiveHorizonError):
        gn.sample_paths(g, m, "a", math.inf, 0, range(2))
