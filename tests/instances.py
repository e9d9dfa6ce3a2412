"""Seeded random instance generators shared by the test modules."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

import gneumann
from gneumann import BoundaryData, Measure, build_graph, closure_subgraph
from gneumann.errors import DisconnectedClosureError

SRC = str(Path(gneumann.__file__).resolve().parents[1])


def random_connected_graph(rng, n, extra_edge_prob=0.3, max_weight=2.0):
    """Random spanning tree plus extra edges; weights uniform in (0, max]."""
    names = [str(i + 1) for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = max_weight * (1.0 - rng.random())
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges[(i, j)] = max_weight * (1.0 - rng.random())
    return build_graph(names, [(names[i], names[j], w) for (i, j), w in edges.items()])


def random_measure(rng, vertices, low=0.5, high=2.0):
    return Measure({v: float(rng.uniform(low, high)) for v in vertices})


def random_closure(rng, n_min=4, n_max=12, **graph_kwargs):
    """Random connected closure: retries until the induced graph with
    boundary-boundary edges removed stays connected."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        g = random_connected_graph(rng, n, **graph_kwargs)
        m = random_measure(rng, g.vertices)
        k = int(rng.integers(1, n))
        interior = [g.vertices[i] for i in rng.choice(n, size=k, replace=False)]
        try:
            return closure_subgraph(g, interior, m)
        except DisconnectedClosureError:
            continue


def random_centered_phi(rng, sub) -> BoundaryData:
    raw = rng.standard_normal(len(sub.boundary))
    mb = np.array([sub.measure[y] for y in sub.boundary])
    raw = raw - (raw @ mb) / mb.sum()
    return BoundaryData.for_closure(sub, dict(zip(sub.boundary, raw)))


def random_noncentered_phi(rng, sub) -> BoundaryData:
    # strictly positive values: the weighted total equals the absolute
    # mass, so the data is decisively non-centered
    raw = np.abs(rng.standard_normal(len(sub.boundary))) + 0.1
    return BoundaryData.for_closure(sub, dict(zip(sub.boundary, raw)))


def run_python(args) -> subprocess.CompletedProcess:
    """``python args`` in a child process with the package on its path and
    a session of its own: a regression could walk forever, and a timeout
    then kills the whole session, pool workers included."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def run_cli(args, out: Path) -> subprocess.CompletedProcess:
    """The CLI with ``args`` and ``--out out``, through ``run_python``."""
    return run_python(["-m", "gneumann.cli", *args, "--out", str(out)])
