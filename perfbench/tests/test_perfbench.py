"""Self-tests of the benchmark: generators, correctness gate, tracer, runs.

    python3 -m pytest perfbench/tests -q

The workload runs use the "tiny" sizes, one round each.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import gen
import run
import tracer

SRC = run.ROOT / "src"


@pytest.fixture
def one_round(monkeypatch):
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "HELP_PER_ROUND", 1)


def _files(inst: gen.Instance) -> dict[str, bytes]:
    return {role: path.read_bytes() for role, path in inst.files.items()}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    sizes = run.SIZES["tiny"][workload]
    made = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / label).mkdir()
        made[label] = gen.GENERATORS[workload](seed, tmp_path / label, **sizes)
    assert _files(made["a"]) == _files(made["b"])
    assert made["a"].files["graph"].read_bytes() != made["c"].files["graph"].read_bytes() \
        or made["a"].files["measure"].read_bytes() != made["c"].files["measure"].read_bytes()
    assert made["a"].facts() == made["b"].facts()


def test_full_size_desk_facts(tmp_path):
    inst = gen.desk(gen.DEFAULT_SEED, tmp_path)
    facts = inst.facts()
    assert facts["n"] == 2000 and facts["edges"] == 1999 + 4000
    assert facts["interior"] == 1600
    assert facts["closure_n"] == facts["interior"] + facts["boundary"]


def test_closure_is_connected_and_phi_centered(tmp_path):
    inst = gen.chain(3, tmp_path)
    closure = set(inst.interior.tolist()) | set(inst.boundary.tolist())
    kept = inst.edges[inst.closure_edges()]
    adj = gen.adjacency(len(inst.ids), kept)
    reached = set(gen.bfs_ball(adj, int(inst.interior[0]), len(inst.ids)).tolist())
    assert reached == closure
    assert abs(inst.phi["closure"] @ inst.m[inst.boundary]) < 1e-12


def test_reference_matches_direct_solve(tmp_path):
    """The gate's sparse reference agrees with a dense pseudo-inverse solve."""
    inst = gen.desk(2, tmp_path, n=30, ball=20, n_measure=5)
    ref = gate.measure_reference(inst)
    import numpy as np

    n = len(inst.ids)
    L = np.zeros((n, n))
    for (a, b), w in zip(inst.edges.tolist(), inst.weights.tolist()):
        L[a, a] += w
        L[b, b] += w
        L[a, b] -= w
        L[b, a] -= w
    rhs = np.zeros(n)
    rhs[inst.measure_mode["boundary"]] = inst.phi["measure"] * inst.measure_mode["mu"]
    u = np.linalg.pinv(L) @ rhs
    u -= (u @ inst.m) / inst.m.sum()
    assert max(abs(ref[x] - v) for x, v in zip(inst.ids, u)) < 1e-10


def _nested_calls():
    t = tracer.Tracer()

    def leaf(x):
        return sum(range(x))

    def middle(x):
        return t.run("leaf", leaf, x) + t.run("leaf", leaf, 2 * x)

    t.run("root", lambda: t.run("middle", middle, 20000) + t.run("leaf", leaf, 5000))
    return t.spans


def test_self_times_plus_children_add_up_to_span():
    spans = _nested_calls()
    selfs = tracer.self_times(spans)
    for s in spans:
        children = sum(c.end - c.start for c in spans if c.parent == s.id)
        assert selfs[s.id] >= 0
        assert math.isclose(selfs[s.id] + children, s.end - s.start, rel_tol=1e-12, abs_tol=1e-12)
    root = next(s for s in spans if s.parent is None)
    assert math.isclose(sum(selfs.values()), root.end - root.start, rel_tol=1e-9)


def test_tracer_spans_the_program_and_restores_it(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    modules = {k: importlib.import_module(f"gneumann.{k}")
               for k in set(tracer.LAYERS) | set(tracer.CALLERS)}
    before = {k: dict(vars(m)) for k, m in modules.items()}
    prop = vars(modules["graphs"].WeightedGraph)["laplacian_matrix"]
    func = prop.func

    inst = gen.desk(4, tmp_path, **run.SIZES["tiny"]["desk"])
    cmd = run.desk_commands(inst, tmp_path / "out", 4, run.SIZES["tiny"])[0]
    t = tracer.Tracer()
    t.install(modules)
    try:
        rc = t.run(tracer.ROOT, modules["cli"].main, cmd.argv)
    finally:
        t.uninstall()
    assert rc == 0 and cmd.check(cmd.out) == []
    assert {k: dict(vars(m)) for k, m in modules.items()} == before
    assert prop.func is func

    names = {s.name for s in t.spans}
    assert {"cli", "fileio.read_graph", "graphs.build_graph", "graphs.closure_subgraph",
            "solver.solve_direct", "graphs.laplacian_matrix", "fileio.write_json"} <= names
    selfs = tracer.self_times(t.spans)
    root = next(s for s in t.spans if s.parent is None)
    assert math.isclose(sum(selfs.values()), root.end - root.start, rel_tol=1e-9)
    stages = tracer.stage_times(t.spans)
    assert {"ingest", "dense solve", "output", "cli body"} <= set(stages)
    assert math.isclose(sum(stages.values()), root.end - root.start, rel_tol=1e-9)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_runs_end_to_end(workload, one_round):
    result, detail = run.run_workload(workload, 3, 0.0, trace=False, scale="tiny")
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_workload_reports_every_layer_metric(workload):
    result, detail = run.run_workload(workload, 3, 0.0, trace=True, scale="tiny")
    assert detail["failures"] == []
    assert result["correct"]
    assert set(result["metrics"]) == set(run.LAYER_METRICS)
    assert all(m["value"] >= 0 or name == "trace.overhead_s"
               for name, m in result["metrics"].items())
    assert detail["dominant"] and all(
        {"predicted", "found", "match"} <= set(d) for d in detail["dominant"].values())
    json.dumps(result)


def test_perturbed_solution_counts_as_failure(monkeypatch, one_round):
    """A solution.csv off by 1e-6 in one entry fails the gate."""
    call = run.Invoker.call

    def perturbing(self, argv):
        out = call(self, argv)
        if "green" in argv:
            path = Path(argv[argv.index("--out") + 1]) / "solution.csv"
            lines = path.read_text().splitlines(keepends=True)
            vertex, u, region = lines[1].rstrip("\n").split(",")
            lines[1] = f"{vertex},{float(u) + 1e-6!r},{region}\n"
            path.write_text("".join(lines))
        return out

    monkeypatch.setattr(run.Invoker, "call", perturbing)
    result, detail = run.run_workload("desk", 3, 0.0, trace=False, scale="tiny")
    assert not result["correct"]
    assert result["failed"] >= 2  # green against the reference, heat against green
    assert detail["error_rate"] == result["failed"] / result["attempted"] > 0
    assert any("solve_green: solution is" in f for f in detail["failures"])


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, run.unit(name)) for name in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.unit(name)) for name in run.LAYER_METRICS]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
