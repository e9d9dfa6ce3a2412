"""Correctness gate for the outputs of one CLI invocation.

Every check returns a list of problems; an empty list means the output is
accepted.  An invocation counts as failed when it exits nonzero or any
check it is subject to reports a problem.  The references are computed
here from the generated instance with scipy.sparse, independently of the
program under test.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from gen import Instance

RESIDUAL_TOL = 1e-8   # summary.json residual_interior / residual_boundary
ROUTE_TOL = 1e-8      # sup-norm gap between two solver routes
REFERENCE_TOL = 1e-8  # sup-norm gap to the benchmark's own reference solve
Z_MAX = 5.0           # |z_score| of a Monte Carlo estimate against its reference
MASS_TOL = 1e-9       # heat-kernel rows must integrate to 1 against m


def grounded_solve(n: int, edges: np.ndarray, weights: np.ndarray,
                   m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L u = rhs for the graph Laplacian L = D - B by fixing u[0] = 0
    (sparse LU on the rest), then center u in m."""
    a, b = edges[:, 0], edges[:, 1]
    B = scipy.sparse.coo_matrix(
        (np.concatenate([weights, weights]), (np.concatenate([a, b]), np.concatenate([b, a]))),
        shape=(n, n),
    ).tocsr()
    L = (scipy.sparse.diags(np.asarray(B.sum(axis=1)).ravel()) - B).tocsc()
    u = np.zeros(n)
    u[1:] = scipy.sparse.linalg.spsolve(L[1:, 1:], rhs[1:])
    return u - (u @ m) / m.sum()


def closure_reference(inst: Instance) -> dict[str, float]:
    """Reference solution of the vertex-boundary problem on the closure."""
    closure = np.concatenate([inst.interior, inst.boundary])
    local = np.full(len(inst.ids), -1)
    local[closure] = np.arange(len(closure))
    keep = inst.closure_edges()
    m = inst.m[closure]
    rhs = np.zeros(len(closure))
    rhs[len(inst.interior):] = inst.phi["closure"] * inst.m[inst.boundary]
    u = grounded_solve(len(closure), local[inst.edges[keep]], inst.weights[keep], m, rhs)
    return {inst.ids[v]: x for v, x in zip(closure.tolist(), u.tolist())}


def measure_reference(inst: Instance) -> dict[str, float]:
    """Reference solution of the boundary-measure problem on the whole graph."""
    n = len(inst.ids)
    rhs = np.zeros(n)
    rhs[inst.measure_mode["boundary"]] = inst.phi["measure"] * inst.measure_mode["mu"]
    u = grounded_solve(n, inst.edges, inst.weights, inst.m, rhs)
    return dict(zip(inst.ids, u.tolist()))


def read_solution(path: Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["vertex", "u", "region"]:
        raise ValueError(f"{path.name}: unexpected header")
    return {row[0]: float(row[1]) for row in rows[1:]}


def sup_gap(u: dict[str, float], v: dict[str, float]) -> float:
    """Sup-norm distance; infinite if the vertex sets differ."""
    if u.keys() != v.keys():
        return math.inf
    return max(abs(u[x] - v[x]) for x in u)


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def solve_problems(out: Path, reference: dict[str, float],
                   other_routes: tuple[Path, ...] = ()) -> list[str]:
    """summary.json residuals, the gap to the reference, and the gap to the
    solutions earlier routes wrote for the same problem."""
    problems = []
    summary = _load_json(out / "summary.json")
    for key in ("residual_interior", "residual_boundary"):
        if not summary[key] <= RESIDUAL_TOL:
            problems.append(f"{key} = {summary[key]!r} > {RESIDUAL_TOL}")
    u = read_solution(out / "solution.csv")
    gap = sup_gap(u, reference)
    if not gap <= REFERENCE_TOL:
        problems.append(f"solution is {gap!r} from the reference")
    for other in other_routes:
        gap = sup_gap(u, read_solution(other / "solution.csv"))
        if not gap <= ROUTE_TOL:
            problems.append(f"solution is {gap!r} from the {other.name} route")
    return problems


def estimate_problems(out: Path) -> list[str]:
    z = _load_json(out / "estimate.json")["z_score"]
    if z is None or not abs(z) <= Z_MAX:
        return [f"z_score = {z!r} outside +-{Z_MAX}"]
    return []


def paths_problems(out: Path, n_paths: int) -> list[str]:
    """paths.csv has its header and ends with the last path."""
    with open(out / "paths.csv", "rb") as fh:
        header = fh.readline()
        fh.seek(max(0, fh.seek(0, 2) - 4096))
        last = fh.read().splitlines()[-1]
    if header != b"path_id,step,state,holding_time\n":
        return [f"paths.csv header is {header!r}"]
    if int(last.split(b",")[0]) != n_paths - 1:
        return [f"paths.csv ends with {last!r}, not path {n_paths - 1}"]
    return []


def report_problems(out: Path) -> list[str]:
    report = _load_json(out / "report.json")
    if report.get("passed") is not True:
        failed = [k for k, s in report.get("suites", {}).items() if not s.get("passed")]
        return [f"report.json not passed; failing suites {failed}"]
    return []


def kernel_problems(out: Path, m_by_id: dict[str, float], times: list[str]) -> list[str]:
    """Every heat-kernel row integrates to 1 against m."""
    problems = []
    for tok in times:
        with open(out / f"heat_t{tok}.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            cols = next(reader)[1:]
            mv = np.array([m_by_id[c] for c in cols])
            worst = max(abs(np.array(row[1:], dtype=float) @ mv - 1.0) for row in reader)
        if not worst <= MASS_TOL:
            problems.append(f"heat_t{tok}.csv rows integrate to 1 only within {worst!r}")
    return problems
