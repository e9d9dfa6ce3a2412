"""Batch front door: load graph/measure/boundary files, run solvers and
simulations, emit CSV/JSON, and run the verification suites.

Four commands: ``solve``, ``simulate``, ``kernel``, ``verify``.  Flags
may also be supplied through ``--config file.json``; explicit flags win.
Failures exit nonzero after printing one machine-readable JSON error
object to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path

from . import fileio
from .errors import GneumannError, InputError
from .graphs import NeumannProblem, closure_subgraph
from .solver import (
    BoundaryData,
    _problem,
    check_compatibility,
    is_compatible,
    solve_direct,
    solve_green,
    solve_heat_integral,
)
from .spectral import (
    _check_time,
    _time_integral,
    eigendecompose,
    green_kernel,
    heat_kernel,
    krylov_apply,
)
from .stochastic import _estimator, _map_spans, _occupation_weights, mc_estimate_measure
from .verification import run_all_suites

__all__ = ["main"]

# kernel CSV cells per span, about 700 kB of text
_KERNEL_CELLS = 2**15
# a paths.csv row: path_id, step, state and holding_time ("%.17g", as ``fileio.fmt``)
_PATH_ROW = "%d,%d,%s,%.17g\n"
_PATH_CHUNK = 4096  # paths.csv rows formatted at once, each cell a Python object meanwhile

# every flag once, by destination: (type, choices, default, help).  The
# table builds the subcommand parsers and checks each --config value.
_FLAGS = {
    "graph": (str, None, None, "edge-list TSV: x<TAB>y<TAB>weight"),
    "measure": (str, None, None, "vertex measure TSV: x<TAB>m"),
    "interior": (str, None, None, "interior vertex set, one id per line"),
    "boundary": (str, None, None, "designated boundary set (boundary-measure mode)"),
    "mu": (str, None, None, "boundary measure TSV (boundary-measure mode)"),
    "phi": (str, None, None, "boundary data TSV: x<TAB>value"),
    "method": (str, ("direct", "green", "heat-integral"), "direct",
               "solution route (default %(default)s)"),
    "tol": (float, None, 1e-10, "truncation tolerance (default %(default)s)"),
    "T": (float, None, None, "time horizon for simulation"),
    "N": (int, None, 10000, "number of Monte Carlo paths (default %(default)s)"),
    "seed": (int, None, 0, "PRNG seed (default %(default)s)"),
    "start": (str, None, None, "start vertex for simulation"),
    "times": (str, None, None, "comma-separated kernel times, e.g. 0.5,1,2"),
    "out": (str, None, ".", "output directory (default %(default)s)"),
    "project": (bool, None, False, "center incompatible boundary data instead of failing"),
    "dump_paths": (bool, None, False, "also write per-path CSV when simulating"),
}


def _build_parser(defaults: dict) -> argparse.ArgumentParser:
    """The parser of all four commands; ``defaults`` (checked --config
    values) replace the table's defaults, so explicit flags still win."""
    parser = argparse.ArgumentParser(
        prog="gneumann",
        description="Neumann boundary-value problems on finite weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("solve", "solve the boundary-value problem and write CSV + JSON"),
        ("simulate", "Monte Carlo boundary-integral estimate along chain paths"),
        ("kernel", "export heat/Green kernel matrices and the spectrum"),
        ("verify", "run the invariant suites and write a pass/fail report"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        for dest, (kind, choices, default, text) in _FLAGS.items():
            kw = {"action": "store_true"} if kind is bool else {"type": kind, "choices": choices}
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, default=default, help=text, **kw)
        p.set_defaults(**defaults)
    return parser


def _read_config(path: str) -> dict:
    """The flag values in a --config file, each checked against its row
    of ``_FLAGS``; a "command" key is ignored."""
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read config {path}: {e}") from e
    if not isinstance(values, dict):
        raise InputError(f"config {path} must hold a JSON object")
    values.pop("command", None)
    for key, val in values.items():
        if key not in _FLAGS:
            raise InputError(f"unknown config key {key!r}")
        kind, choices, _, _ = _FLAGS[key]
        ok = isinstance(val, (int, float) if kind is float else kind)
        ok = ok and (kind is bool or not isinstance(val, bool))  # bool is an int subclass
        if not ok or (choices and val not in choices):
            expected = "one of " + ", ".join(choices) if choices else kind.__name__
            raise InputError(f"config key {key!r} must be {expected}, got {val!r}", key=key)
    return values


def _require(config: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(config, n) in (None, "")]
    if missing:
        raise InputError(
            f"{config.command} requires --" + ", --".join(missing), missing=missing
        )


def _load_instance(config: argparse.Namespace):
    _require(config, "graph", "measure")
    g = fileio.read_graph(config.graph)
    m = fileio.read_measure(config.measure)
    return g, m


def _load_problem(config: argparse.Namespace):
    """Read the instance and the problem, as ``(mode, problem)``.

    ``--interior`` gives the closure ("vertex-boundary"), the problem with
    mu = m on the vertex boundary; ``--boundary`` with ``--mu`` gives the
    ``NeumannProblem`` on the input graph ("boundary-measure").  Every
    solve route and the estimator take either.
    """
    g, m = _load_instance(config)
    if config.interior and (config.boundary or config.mu):
        raise InputError("give either --interior or --boundary with --mu, not both")
    if config.interior:
        return "vertex-boundary", closure_subgraph(g, fileio.read_vertex_set(config.interior), m)
    if not (config.boundary and config.mu):
        raise InputError("need --interior, or --boundary together with --mu")
    boundary = fileio.read_vertex_set(config.boundary)
    return "boundary-measure", NeumannProblem(g, boundary, m, fileio.read_measure(config.mu))


def _maybe_project(config: argparse.Namespace, problem: NeumannProblem, phi: BoundaryData):
    _problem(problem, phi, centered=False)  # before projecting: errors name the file's values
    if config.project and not is_compatible(phi):
        projected, shift = phi.project_centered()
        warning = (
            "boundary data was not centered; subtracted its weighted mean "
            f"({fileio.fmt(shift)}) before solving"
        )
        return projected, shift, warning
    return phi, None, None


def _out_dir(config: argparse.Namespace) -> Path:
    """The output directory, created when the first output is written, so a
    command that fails leaves none behind."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(config: argparse.Namespace) -> int:
    mode, problem = _load_problem(config)
    _require(config, "phi")
    phi = BoundaryData.for_closure(problem, fileio.read_vertex_function(config.phi))
    phi, shift, warning = _maybe_project(config, problem, phi)
    summary: dict = {"mode": mode}

    if config.method == "direct":
        sol = solve_direct(problem, phi)
    elif config.method == "green":
        sol = solve_green(problem, phi)
    else:
        sol = solve_heat_integral(problem, phi, tol=config.tol)

    out = _out_dir(config)
    fileio.write_solution_csv(sol.u, problem.boundary, problem.graph.vertices, out / "solution.csv")
    summary.update({
        "method": sol.method,
        "residual_interior": sol.residual_interior,
        "residual_boundary": sol.residual_boundary,
        "centering": sol.centering,
        "compatibility_sum": check_compatibility(phi),
    })
    if sol.truncation_horizon is not None:
        summary["T_truncation"] = sol.truncation_horizon
    if warning:
        summary["warning"] = warning
        summary["projected_shift"] = shift
    fileio.write_json(summary, out / "summary.json")
    return 0


def _path_rows(vertices):
    """The formatter of ``paths.csv`` rows from a walked span's
    ``_recorded_holds``: one template, ``_PATH_CHUNK`` rows at a time."""
    cells = [fileio._csv_cell(x) for x in vertices]  # each id quoted once

    def chunk(ids, steps, states, holds) -> str:
        cols = zip(ids.tolist(), steps.tolist(), map(cells.__getitem__, states.tolist()),
                   holds.tolist())
        return (_PATH_ROW * len(ids)) % tuple(chain.from_iterable(cols))

    def rows(ids, steps, states, holds) -> str:
        return "".join(chunk(*(col[lo:lo + _PATH_CHUNK] for col in (ids, steps, states, holds)))
                       for lo in range(0, len(ids), _PATH_CHUNK))

    return rows


def _cmd_simulate(config: argparse.Namespace) -> int:
    mode, problem = _load_problem(config)
    g, m = problem.graph, problem.measure
    _require(config, "start", "T")
    if config.N < 2:
        raise InputError(f"simulation needs N >= 2, got {config.N}")
    _require(config, "phi")
    phi = BoundaryData.for_closure(problem, fileio.read_vertex_function(config.phi))
    job = (config.start, config.T, config.N, config.seed)
    if config.dump_paths:
        run = _estimator(problem, phi, *job)  # checks now; walks once the output directory exists
    else:
        est = mc_estimate_measure(g, problem.boundary, m, problem.boundary_measure(), phi, *job)

    # the same finite-horizon expectation as reference: the heat-time
    # integral of f m by Lanczos, plus its zero mode T (f . m) / m(X)
    load = _occupation_weights(problem, phi) * m.to_vector(g.vertices)
    u, _ = krylov_apply(g, m, load, lambda z, gap: _time_integral(z, config.T))
    ref = float(u[g.index(str(config.start))]) + config.T * sum(load.tolist()) / m.total
    out = _out_dir(config)

    if config.dump_paths:
        with open(out / "paths.csv", "w", encoding="utf-8") as fh:
            fh.write("path_id,step,state,holding_time\n")
            est = run(_path_rows(g.vertices), fh.write)

    z = (est.value - ref) / est.stderr if est.stderr > 0 else None
    report = {
        "start": est.start,
        "T": est.horizon,
        "N": est.samples,
        "seed": est.seed,
        "value": est.value,
        "stderr": est.stderr,
        "analytic_reference": ref,
        "z_score": z,
        "mode": mode,
    }
    fileio.write_json(report, out / "estimate.json")
    return 0


def _cmd_kernel(config: argparse.Namespace) -> int:
    g, m = _load_instance(config)
    if not config.times:
        raise InputError(
            "kernel requires explicit --times t1,t2,... "
            "(time scales are graph-dependent; there is no safe default)"
        )
    # a repeated token names the same file: write it once
    tokens = dict.fromkeys(tok.strip() for tok in str(config.times).split(",") if tok.strip())
    try:
        times = [(tok, float(tok)) for tok in tokens]
    except ValueError as e:
        raise InputError(f"cannot parse --times: {e}") from e
    for _, t in times:  # every time, before any output is written
        _check_time(t)
    spec = eigendecompose(g, m)
    names = [f"heat_t{tok}.csv" for tok, _ in times] + ["green.csv", "spectrum.csv"]
    tables = [fileio._kernel_table(heat_kernel(spec, t)) for _, t in times]
    tables += [fileio._kernel_table(green_kernel(spec)), fileio._spectrum_table(spec)]
    n = g.n  # rows of every table

    def rows(lo: int, hi: int) -> list[tuple[int, str]]:
        """Rows lo .. hi-1 of the tables laid end to end, as (table, text)."""
        return [(k, tables[k].rows(max(lo - k * n, 0), min(hi - k * n, n)))
                for k in range(lo // n, (hi - 1) // n + 1)]

    out = _out_dir(config)
    # formatting a cell takes about 0.75 us and a hold of the walker about
    # 0.4 us (2-core Xeon), so a job of c cells weighs 2c holds
    holds = 2.0 * len(tables) * n * (n + 1)
    spans = _map_spans(rows, len(tables) * n, max(1, _KERNEL_CELLS // n), holds)
    for k, pieces in groupby(chain.from_iterable(spans), key=itemgetter(0)):
        tables[k].write(out / names[k], (text for _, text in pieces))
    return 0


def _cmd_verify(config: argparse.Namespace) -> int:
    mode, sub = _load_problem(config)
    if mode != "vertex-boundary":
        raise InputError("verify runs on a closure: give --interior, not --boundary with --mu")
    phi = None
    if config.phi:
        phi = BoundaryData.for_closure(sub, fileio.read_vertex_function(config.phi))
    report = run_all_suites(sub, phi=phi, seed=config.seed)
    out = _out_dir(config)
    fileio.write_json(report, out / "report.json")
    return 0 if report["passed"] else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    config = _build_parser({}).parse_args(argv)
    try:
        if config.config:
            config = _build_parser(_read_config(config.config)).parse_args(argv)
        with warnings.catch_warnings():
            # stderr holds one JSON error; the residual gate, not numpy's
            # overflow and invalid-value warnings, reports a failed solve
            warnings.simplefilter("ignore", RuntimeWarning)
            return _COMMANDS[config.command](config)
    except GneumannError as e:
        # non-finite floats as strings keep the error object strict JSON
        context = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                   for k, v in getattr(e, "context", {}).items()}
        payload = {"code": e.code, "message": str(e), "context": context}
        print(json.dumps(payload, sort_keys=True, default=str, allow_nan=False), file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as e:  # unreadable or non-UTF-8 input file
        payload = {"code": "InputError", "message": str(e), "context": {}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
