"""Per-layer trace of the ``gneumann`` CLI, taken from outside the program.

The tracer wraps the public functions of the layer modules (``fileio``,
``graphs``, ``forms``, ``spectral``, ``solver``, ``stochastic``,
``verification``) in the namespaces of the modules that call them
(``cli``, ``solver``, ``fileio``, ``verification``), plus the cached
``WeightedGraph.laplacian_matrix`` property, and then calls
``gneumann.cli.main(argv)`` in-process.  Each wrapped call records a span
(name, start, end, parent span, command id); spans stay in memory and are
written out when the run ends.  Nothing in the program is changed on disk.

Run as a script, it reads a plan (JSON: ``src``, ``seconds``, ``out`` and
``commands``, a list of ``{"name", "argv"}``), runs every command once
to warm up, then in rounds while another round fits in ``seconds`` runs
every command once untraced and once traced, and writes the timings,
per-command facts and all spans to ``out``.
The aggregation helpers below import nothing from the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import astuple, dataclass

LAYERS = ("fileio", "graphs", "forms", "spectral", "solver", "stochastic", "verification")
CALLERS = ("cli", "solver", "fileio", "verification")
# number formatting helper called once per written number: a span per call
# would trace the tracer, not the program
UNTRACED = {"fmt"}

# stage of each function called directly by a command body; the command's
# dominant stage is the one with the most inclusive time
STAGE_OF = {
    "fileio.read_graph": "ingest",
    "fileio.read_measure": "ingest",
    "fileio.read_vertex_set": "ingest",
    "fileio.read_vertex_function": "ingest",
    "graphs.closure_subgraph": "ingest",
    "solver.solve_direct": "dense solve",
    "solver.solve_boundary_measure": "dense solve",
    "spectral.eigendecompose": "spectral",
    "solver.solve_green": "spectral",
    "solver.solve_heat_integral": "spectral",
    "spectral.heat_time_integral": "spectral",
    "spectral.green_kernel": "spectral",
    "spectral.heat_kernel": "spectral",
    "verification.run_all_suites": "verify battery",
    "stochastic.mc_estimate_measure": "monte carlo",
    "stochastic.sample_path_graph": "path dump",
    "cli": "cli body",  # the command body outside wrapped calls, e.g. the paths.csv loop
    "fileio.write_kernel_csv": "output",
    "fileio.write_spectrum_csv": "output",
    "fileio.write_solution_csv": "output",
    "fileio.write_json": "output",
}
ROOT = "cli"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: str


class Tracer:
    """Records spans for wrapped calls; ``install`` patches, ``uninstall``
    restores every patched attribute."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = ""
        self.calls: list[tuple[str, tuple]] = []  # (name, args) of calls with facts
        self._stack: list[int | None] = [None]
        self._patches: list[tuple[object, str, object]] = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        sid = len(self.spans)
        parent = self._stack[-1]
        self._stack.append(sid)
        self.spans.append(None)  # reserve the id; filled in when the call ends
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.command)

    def wrap(self, name: str, fn, keep_args: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep_args:
                self.calls.append((name, args))
            return self.run(name, fn, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap layer functions where the caller modules look them up.

        ``modules`` maps short module names to the imported modules.
        """
        layer_modules = {modules[k].__name__ for k in LAYERS}
        for caller in CALLERS:
            ns = modules[caller]
            for attr, obj in list(vars(ns).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and attr not in UNTRACED and obj.__module__ in layer_modules):
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    self._patch(ns, attr, self.wrap(
                        name, obj, keep_args=name in FACTS or name.startswith(FILE_IO)))
        prop = vars(modules["graphs"].WeightedGraph)["laplacian_matrix"]
        self._patch(prop, "func", self.wrap("graphs.laplacian_matrix", prop.func))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# --------------------------------------------------------------- facts
# Calls whose arguments describe the problem a command works on: each maps
# the call's positional args to (graph, boundary size).

FACTS = {
    "solver.solve_direct": lambda a: (a[0].graph, len(a[0].boundary)),
    "solver.solve_green": lambda a: (a[0].graph, len(a[0].boundary)),
    "solver.solve_heat_integral": lambda a: (a[0].graph, len(a[0].boundary)),
    "verification.run_all_suites": lambda a: (a[0].graph, len(a[0].boundary)),
    "solver.solve_boundary_measure": lambda a: (a[0], len(tuple(a[1]))),
    "stochastic.mc_estimate_measure": lambda a: (a[0], len(tuple(a[1]))),
    "spectral.eigendecompose": lambda a: (a[0], 0),
}
FILE_IO = ("fileio.read_", "fileio.write_")  # calls whose path argument is sized


def command_facts(calls: list[tuple[str, tuple]], spectral) -> dict:
    """Problem size, bytes moved and Monte Carlo work of one command.

    ``jumps`` is computed, not counted: N times the expected number of
    jumps of the chain on [0, T] from the start vertex, which is the time
    integral of the jump rate deg/m along the heat semigroup, evaluated
    with the program's own ``heat_time_integral``.
    """
    facts = {"n": 0, "nnz": 0, "n_boundary": 0, "bytes_in": 0, "bytes_out": 0,
             "paths": 0, "jumps": 0.0}
    for name, args in calls:
        if name.startswith("fileio.read_"):
            facts["bytes_in"] += os.path.getsize(args[0])
        elif name.startswith("fileio.write_"):
            facts["bytes_out"] += os.path.getsize(args[-1])
        else:
            g, n_boundary = FACTS[name](args)
            degree_sum = sum(len(g.neighbors(x)) for x in g.vertices)
            facts["n"] = max(facts["n"], g.n)
            facts["nnz"] = max(facts["nnz"], g.n + degree_sum)
            facts["n_boundary"] = max(facts["n_boundary"], n_boundary)
        if name == "stochastic.mc_estimate_measure":
            g, m, x0, T, N = args[0], args[2], str(args[5]), float(args[6]), int(args[7])
            rates = [g.degree(x) / m[x] for x in g.vertices]
            spec = spectral.eigendecompose(g, m)
            per_path = spectral.heat_time_integral(spec, rates, T)[x0]
            facts["paths"] += N
            facts["jumps"] += N * per_path
    return facts


# --------------------------------------------------------------- aggregation


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.  Spans of
    one thread nest, so the children never overlap."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def stage_times(spans: list[Span]) -> dict[str, float]:
    """Inclusive time of each stage directly under one command's root span."""
    root = next(s for s in spans if s.parent is None)
    selfs = self_times(spans)
    out = defaultdict(float)
    out[STAGE_OF[ROOT]] += selfs[root.id]
    for s in spans:
        if s.parent == root.id:
            out[STAGE_OF.get(s.name, "other")] += s.end - s.start
    return dict(out)


def round_layer_totals(spans: list[Span]) -> tuple[dict, dict, float]:
    """Self time and call count per span name, summed over the commands of
    one round, plus the inclusive time spent in the Monte Carlo estimator."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    mc_s = 0.0
    for s in spans:
        self_s[s.name] += selfs[s.id]
        calls[s.name] += 1
        if s.name == "stochastic.mc_estimate_measure":
            mc_s += s.end - s.start
    return dict(self_s), dict(calls), mc_s


def layer_metrics(trace: dict, wanted: list[str]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics named in ``wanted`` from a tracer output, with
    medians over rounds; names the trace never saw read 0.  Also returns
    the stage breakdown of each command in the last round."""
    spans = [Span(*s) for s in trace["spans"]]
    by_round = defaultdict(list)
    for s in spans:
        by_round[s.command.split(":", 1)[0]].append(s)
    per_round = []
    for r, rnd in enumerate(trace["rounds"]):
        self_s, calls, mc_s = round_layer_totals(by_round[str(r)])
        facts = [c["facts"] for c in rnd.values()]
        values = {f"{k}.self_s": v for k, v in self_s.items()}
        values.update({f"{k}.calls": float(v) for k, v in calls.items()})
        for key in ("n", "nnz", "n_boundary"):
            values[f"graphs.{key}"] = float(max(f[key] for f in facts))
        for key in ("bytes_in", "bytes_out"):
            values[f"fileio.{key}"] = float(sum(f[key] for f in facts))
        paths = sum(f["paths"] for f in facts)
        jumps = sum(f["jumps"] for f in facts)
        values["stochastic.paths"] = float(paths)
        values["stochastic.jumps"] = jumps
        values["stochastic.paths_per_s"] = paths / mc_s if mc_s > 0 else 0.0
        values["stochastic.jumps_per_s"] = jumps / mc_s if mc_s > 0 else 0.0
        per_round.append(values)

    metrics = {name: statistics.median(v.get(name, 0.0) for v in per_round) for name in wanted}

    overhead = 0.0
    for cmd in trace["rounds"][0]:
        untraced = statistics.median(rnd[cmd]["untraced_s"] for rnd in trace["rounds"])
        traced = statistics.median(rnd[cmd]["traced_s"] for rnd in trace["rounds"])
        overhead += traced - untraced
        if f"cli.{cmd}.body_s" in metrics:
            metrics[f"cli.{cmd}.body_s"] = untraced
    if "trace.overhead_s" in metrics:
        metrics["trace.overhead_s"] = overhead

    last = str(len(trace["rounds"]) - 1)
    stages = {}
    for cmd in trace["rounds"][0]:
        stages[cmd] = stage_times([s for s in by_round[last] if s.command == f"{last}:{cmd}"])
    return metrics, stages


# --------------------------------------------------------------- script


def _call_main(main, argv) -> int:
    try:
        return int(main(argv) or 0)
    except SystemExit as e:  # argparse rejects the arguments
        return e.code if isinstance(e.code, int) else 1


def trace_commands(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    modules = {k: importlib.import_module(f"gneumann.{k}") for k in set(LAYERS) | set(CALLERS)}
    main = modules["cli"].main
    tracer = Tracer()
    rounds = []
    deadline = time.perf_counter() + plan["seconds"]
    for cmd in plan["commands"]:  # the first call in a process runs cold
        _call_main(main, cmd["argv"])
    round_s = 0.0
    while not rounds or time.perf_counter() + round_s <= deadline:
        begin = time.perf_counter()
        rnd = {}
        for cmd in plan["commands"]:
            t0 = time.perf_counter()
            rc_untraced = _call_main(main, cmd["argv"])
            untraced = time.perf_counter() - t0

            tracer.command = f"{len(rounds)}:{cmd['name']}"
            tracer.calls = []
            tracer.install(modules)
            try:
                t0 = time.perf_counter()
                rc_traced = tracer.run(ROOT, _call_main, main, cmd["argv"])
                traced = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            rnd[cmd["name"]] = {
                "untraced_s": untraced,
                "traced_s": traced,
                "returncodes": [rc_untraced, rc_traced],
                "facts": command_facts(tracer.calls, modules["spectral"]),
            }
        rounds.append(rnd)
        round_s = time.perf_counter() - begin
    return {"rounds": rounds, "spans": [astuple(s) for s in tracer.spans]}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = trace_commands(plan)
    with open(plan["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
