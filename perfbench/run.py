"""Benchmark of the ``gneumann`` CLI: end-to-end wall times and a per-layer trace.

    python3 perfbench/run.py --workload desk|chain|region --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from the seed
(``gen.py``) and not timed.  With ``--trace 0`` every command of the
workload runs as its own ``python3 -m gneumann.cli`` subprocess, one at a
time, in rounds until ``S`` seconds have passed; each output is checked
(``gate.py``) and the metrics are medians over the rounds.  With
``--trace 1`` the commands run in-process under ``tracer.py`` instead and
the metrics are per-layer self times and counts.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it and
``.bench_out/results/`` hold the environment, instance facts and
per-command detail.  Exits 2 without a result when the checkout has no
program sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gate
import gen
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3        # a median needs a few samples even when --seconds is short
HELP_PER_ROUND = 2    # setup_s samples per round
CALL_TIMEOUT_S = 60   # a hung invocation is killed and counted as failed

END_TO_END = ["wall_s", "setup_s", "peak_rss_mb"]
LAYER_METRICS = [
    # ingest
    "fileio.read_graph.self_s", "graphs.build_graph.self_s", "graphs.closure_subgraph.self_s",
    "fileio.read_measure.self_s", "fileio.bytes_in",
    # Laplacian assembly and dense solve
    "graphs.laplacian_matrix.self_s", "solver.solve_direct.self_s",
    "solver.solve_boundary_measure.self_s", "graphs.n", "graphs.nnz", "graphs.n_boundary",
    # spectral
    "spectral.eigendecompose.self_s", "spectral.green_kernel.self_s",
    "spectral.mixing_constants.self_s", "spectral.heat_time_integral.self_s",
    "solver.solve_green.self_s", "solver.solve_heat_integral.self_s",
    # verify battery
    *(f"verification.check_{s}.self_s" for s in (
        "gauss_green", "chapman_kolmogorov", "stochastic_completeness", "kernel_bounds",
        "heat_equation", "mixing", "ultracontractivity", "markov_property",
        "green_identity", "cross_methods")),
    "verification.run_all_suites.self_s",
    "spectral.heat_kernel.self_s", "spectral.heat_kernel.calls", "spectral.rate_function.self_s",
    "forms.formal_laplacian.self_s", "forms.formal_laplacian.calls",
    "forms.energy_bilinear.self_s", "forms.energy.self_s",
    "forms.normal_derivative.self_s", "forms.normal_derivative.calls",
    "forms.interior_laplacian.self_s", "forms.markov_contraction.self_s",
    # Monte Carlo estimator (jumps is computed, see tracer.command_facts)
    "stochastic.mc_estimate_measure.self_s", "stochastic.paths", "stochastic.jumps",
    "stochastic.paths_per_s", "stochastic.jumps_per_s",
    # path dump
    "stochastic.sample_path_graph.self_s", "stochastic.sample_path_graph.calls", "cli.self_s",
    # output writes
    "fileio.write_kernel_csv.self_s", "fileio.write_spectrum_csv.self_s",
    "fileio.write_solution_csv.self_s", "fileio.write_json.self_s", "fileio.bytes_out",
    "trace.overhead_s",
    # untraced in-process body of each command, beside its traced spans
    *(f"cli.{c}.body_s" for c in (
        "solve_direct", "solve_green", "solve_heat", "solve_measure",
        "simulate_short", "simulate_long", "simulate_dump",
        "solve_region", "verify", "kernel")),
]


class CannotRun(Exception):
    """The checkout holds no program the benchmark can run."""


@dataclass
class Command:
    """One CLI invocation of a workload and the checks on its outputs."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]
    predicted: str                   # stage the trace should find dominant
    stable: tuple[str, ...] = ()     # outputs whose bytes must repeat exactly
    first_bytes: dict[str, bytes] = field(default_factory=dict)

    def problems(self) -> list[str]:
        found = self.check(self.out)
        for fname in self.stable:
            data = (self.out / fname).read_bytes()
            if self.first_bytes.setdefault(fname, data) != data:
                found.append(f"{fname} bytes differ from the first run")
        return found


# --------------------------------------------------------------- workloads
# Each workload function takes the instance, the output root and the seed, and
# returns the workload's commands in the order a round runs them.  SIZES
# holds the generator and command sizes; "tiny" is for the self-tests.

SIZES = {
    "full": {
        "desk": {"n": 2000, "ball": 1600, "n_measure": 200},
        "chain": {"n": 40, "ball": 30},
        "region": {"side": 316, "patch": 20},
        "simulate": {"short": ("2", "100000"), "long": ("200", "2000"), "dump": ("2", "5000")},
    },
    "tiny": {
        "desk": {"n": 60, "ball": 45, "n_measure": 10},
        "chain": {"n": 12, "ball": 8},
        "region": {"side": 12, "patch": 4},
        "simulate": {"short": ("2", "2000"), "long": ("20", "200"), "dump": ("2", "50")},
    },
}


def _closure_args(inst: gen.Instance) -> list[str]:
    f = inst.files
    return ["--graph", str(f["graph"]), "--measure", str(f["measure"]),
            "--interior", str(f["interior"]), "--phi", str(f["phi"])]


def desk_commands(inst, out: Path, seed: int, sizes: dict) -> list[Command]:
    ref = gate.closure_reference(inst)
    mref = gate.measure_reference(inst)
    routes = []
    cmds = []
    for name, method in (("direct", "direct"), ("green", "green"), ("heat", "heat-integral")):
        d = out / name
        earlier = tuple(routes)
        cmds.append(Command(
            f"solve_{name}", ["solve", *_closure_args(inst), "--method", method, "--out", str(d)], d,
            lambda o, earlier=earlier: gate.solve_problems(o, ref, earlier),
            "dense solve" if name == "direct" else "spectral", stable=("summary.json",)))
        routes.append(d)
    f = inst.files
    d = out / "measure"
    cmds.append(Command(
        "solve_measure",
        ["solve", "--graph", str(f["graph"]), "--measure", str(f["measure"]),
         "--boundary", str(f["bm_boundary"]), "--mu", str(f["bm_mu"]), "--phi", str(f["bm_phi"]),
         "--out", str(d)], d,
        lambda o: gate.solve_problems(o, mref), "dense solve", stable=("summary.json",)))
    return cmds


def chain_commands(inst, out: Path, seed: int, sizes: dict) -> list[Command]:
    cmds = []
    for name, (T, N) in sizes["simulate"].items():
        d = out / name
        argv = ["simulate", *_closure_args(inst), "--start", inst.extra["root"],
                "--T", T, "--N", N, "--seed", str(seed), "--out", str(d)]
        if name == "dump":
            argv.append("--dump-paths")
            check = (lambda o, n=int(N): gate.estimate_problems(o) + gate.paths_problems(o, n))
        else:
            check = gate.estimate_problems
        cmds.append(Command(f"simulate_{name}", argv, d, check,
                            "path dump" if name == "dump" else "monte carlo",
                            stable=("estimate.json",)))
    return cmds


def region_commands(inst, out: Path, seed: int, sizes: dict) -> list[Command]:
    ref = gate.closure_reference(inst)
    closure = [*inst.interior.tolist(), *inst.boundary.tolist()]
    m_closure = {inst.ids[v]: float(inst.m[v]) for v in closure}
    times = ["0.5", "2"]
    f = inst.files
    return [
        Command("solve_region", ["solve", *_closure_args(inst), "--method", "direct",
                                 "--out", str(out / "solve")], out / "solve",
                lambda o: gate.solve_problems(o, ref), "ingest", stable=("summary.json",)),
        Command("verify", ["verify", *_closure_args(inst), "--seed", str(seed),
                           "--out", str(out / "verify")], out / "verify",
                gate.report_problems, "ingest"),
        Command("kernel", ["kernel", "--graph", str(f["patch_graph"]),
                           "--measure", str(f["patch_measure"]), "--times", ",".join(times),
                           "--out", str(out / "kernel")], out / "kernel",
                lambda o: gate.kernel_problems(o, m_closure, times), "output"),
    ]


WORKLOADS = {"desk": desk_commands, "chain": chain_commands, "region": region_commands}


# --------------------------------------------------------------- invocations


@dataclass
class Call:
    wall_s: float
    rss_mb: float
    returncode: int
    stderr: str


class Invoker:
    """Runs the CLI of the checkout as a child process, one at a time."""

    def __init__(self, src: Path, log: Path):
        self.env = child_env(src)
        self.log = log

    def call(self, argv: list[str]) -> Call:
        with open(self.log, "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "gneumann.cli", *argv], cwd=ROOT,
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()[-2000:]
        return Call(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def child_env(src: Path) -> dict:
    """The caller's environment with only the checkout's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


# --------------------------------------------------------------- environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """sha256 over the program's sources: identifies the code where the
    checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(src: Path, seed: int) -> dict:
    """Machine and software record; raises if the CLI would not run from
    the checkout's sources."""
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("envinfo.py"))],
                          cwd=ROOT, env=child_env(src), capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise CannotRun(f"cannot import the program from {src}: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    if not Path(info["gneumann_file"]).resolve().is_relative_to(src.resolve()):
        raise CannotRun(f"gneumann imports from {info['gneumann_file']}, not {src}")
    info.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(src),
        "seed": seed,
    })
    return info


# --------------------------------------------------------------- runs


def timed_run(cmds: list[Command], invoker: Invoker, seconds: float) -> dict:
    """Rounds of ``--help`` plus every command until ``seconds`` pass."""
    for _ in range(2):  # warm the bytecode and page caches
        invoker.call(["--help"])
    help_s: list[float] = []
    samples = {c.name: [] for c in cmds}
    rss = {c.name: 0.0 for c in cmds}
    failures: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        begin = time.perf_counter()
        for _ in range(HELP_PER_ROUND):
            call = invoker.call(["--help"])
            attempted += 1
            help_s.append(call.wall_s)
            if call.returncode != 0:
                failures.append(f"--help exited {call.returncode}: {call.stderr}")
        for c in cmds:
            call = invoker.call(c.argv)
            attempted += 1
            samples[c.name].append(call.wall_s)
            rss[c.name] = max(rss[c.name], call.rss_mb)
            if call.returncode != 0:
                failures.append(f"{c.name} exited {call.returncode}: {call.stderr}")
                continue
            try:
                problems = c.problems()
            except (OSError, ValueError, KeyError) as e:
                problems = [f"unreadable output: {e!r}"]
            if problems:
                failures.append(f"{c.name}: " + "; ".join(problems))
        rounds += 1
        round_s = time.perf_counter() - begin
    medians = {name: statistics.median(s) for name, s in samples.items()}
    return {
        "attempted": attempted,
        "failures": failures,
        "rounds": rounds,
        "metrics": {
            "wall_s": sum(medians.values()),
            "setup_s": statistics.median(help_s),
            "peak_rss_mb": max(rss.values()),
        },
        "commands": {name: {"median_s": medians[name], "wall_s": samples[name],
                            "rss_mb": rss[name]} for name in samples},
        "setup_samples_s": help_s,
    }


def traced_run(cmds: list[Command], src: Path, work: Path, seconds: float) -> dict:
    """In-process traced rounds under tracer.py, then the output checks."""
    plan = {"src": str(src), "seconds": seconds, "out": str(work / "trace.json"),
            "commands": [{"name": c.name, "argv": c.argv} for c in cmds]}
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("tracer.py")),
                           str(plan_path)], cwd=ROOT, env=child_env(src),
                          capture_output=True, text=True, timeout=seconds + CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"tracer failed: {proc.stderr[-2000:]}")
    trace = json.loads(Path(plan["out"]).read_text(encoding="utf-8"))
    failures = []
    attempted = 0
    for rnd in trace["rounds"]:
        for name, rec in rnd.items():
            attempted += len(rec["returncodes"])
            failures.extend(f"{name} exited {rc}" for rc in rec["returncodes"] if rc != 0)
    for c in cmds:  # the outputs of the last traced invocation
        try:
            problems = c.check(c.out)
        except (OSError, ValueError, KeyError) as e:
            problems = [f"unreadable output: {e!r}"]
        if problems:
            failures.append(f"{c.name}: " + "; ".join(problems))
    metrics, stages = tracer.layer_metrics(trace, LAYER_METRICS)
    dominant = {}
    for c in cmds:
        found = max(stages[c.name], key=stages[c.name].get)
        dominant[c.name] = {"predicted": c.predicted, "found": found,
                            "match": found == c.predicted, "stages_s": stages[c.name]}
    return {"attempted": attempted, "failures": failures, "rounds": len(trace["rounds"]),
            "metrics": metrics, "dominant": dominant, "spans": trace["spans"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> tuple[dict, dict]:
    """Generate, run and check one workload; returns (result, detail)."""
    src = ROOT / "src"
    if not (src / "gneumann" / "cli.py").is_file():
        raise CannotRun(f"no program sources at {src}")
    env = environment(src, seed)
    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        sizes = SIZES[scale]
        inst = gen.GENERATORS[workload](seed, work / "in", **sizes[workload])
        cmds = WORKLOADS[workload](inst, work / "out", seed, sizes)
        if trace:
            run = traced_run(cmds, src, work, seconds)
        else:
            run = timed_run(cmds, Invoker(src, work / "stderr.txt"), seconds)
        facts = inst.facts()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(run["failures"])
    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit(name)}
                    for name in (LAYER_METRICS if trace else END_TO_END)},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "environment": env, "instance": facts,
        "error_rate": failed / run["attempted"],
        **{k: v for k, v in run.items() if k not in ("metrics", "attempted")},
    }
    return result, detail


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("fileio.bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except CannotRun as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({"result": result, **detail}, indent=1))
    detail.pop("spans", None)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
