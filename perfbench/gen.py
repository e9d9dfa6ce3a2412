"""Seeded instance generators for the benchmark workloads.

Each generator draws everything from one ``numpy.random.Generator`` seeded
with the workload seed and writes the TSV inputs the ``gneumann`` CLI
reads.  The same seed gives byte-identical files.  Closures are connected
by construction: a BFS ball in a connected graph is connected, and every
boundary vertex has an edge into the ball; a grid patch is connected
likewise.

The returned ``Instance`` keeps the numeric arrays as well, so the
correctness gate can compute its own reference solution without parsing
the files back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the seed a workload uses unless told otherwise, and one kept aside so a
# claimed gain can be re-checked on an instance it was not tuned on
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

LOW, HIGH = 0.5, 2.0  # weights, masses and boundary measures are U(LOW, HIGH)


@dataclass
class Instance:
    """A generated problem: vertex ids, edges, measure and the chosen sets.

    ``edges`` is an (E, 2) array of vertex indices with ``weights`` beside
    it; ``interior`` and ``boundary`` index into ``ids``.  ``files`` maps a
    role (``graph``, ``measure``, ``interior``, ``phi``, ...) to the path
    written for it, and ``phi`` holds the boundary data by role.
    ``measure_mode`` holds the designated boundary and its measure ``mu``
    where the workload solves in boundary-measure mode; ``extra`` holds
    further facts worth recording, such as the ball's root.
    """

    ids: list[str]
    edges: np.ndarray
    weights: np.ndarray
    m: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray
    files: dict[str, Path] = field(default_factory=dict)
    phi: dict[str, np.ndarray] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    measure_mode: dict[str, np.ndarray] = field(default_factory=dict)

    def closure_edges(self) -> np.ndarray:
        """Mask of the edges kept in the closure: one endpoint interior."""
        inside = np.zeros(len(self.ids), dtype=bool)
        inside[self.interior] = True
        return inside[self.edges[:, 0]] | inside[self.edges[:, 1]]

    def facts(self) -> dict:
        """Sizes that set the cost of each layer."""
        n, n_edges = len(self.ids), len(self.edges)
        closure_n = len(self.interior) + len(self.boundary)
        closure_edges = int(self.closure_edges().sum())
        return {
            "n": n,
            "edges": n_edges,
            "nnz": n + 2 * n_edges,
            "interior": len(self.interior),
            "boundary": len(self.boundary),
            "closure_n": closure_n,
            "closure_nnz": closure_n + 2 * closure_edges,
            "input_bytes": sum(p.stat().st_size for p in self.files.values()),
            **self.extra,
        }


# ---------------------------------------------------------------- graphs


def tree_plus_edges(rng: np.random.Generator, n: int, extra_per_vertex: int = 2):
    """Random recursive tree on n vertices plus ``extra_per_vertex * n``
    distinct extra edges; returns (edges, weights)."""
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    pairs = [(int(p), i) for i, p in enumerate(parents.tolist(), start=1)]
    seen = set(pairs)
    target = len(pairs) + extra_per_vertex * n
    max_edges = n * (n - 1) // 2
    while len(pairs) < min(target, max_edges):
        a, b = rng.integers(0, n, size=2).tolist()
        key = (a, b) if a < b else (b, a)
        if a != b and key not in seen:
            seen.add(key)
            pairs.append(key)
    edges = np.array(pairs, dtype=np.int64)
    return edges, rng.uniform(LOW, HIGH, len(edges))


def grid_edges(side: int) -> np.ndarray:
    """Edges of the side x side grid, vertex (i, j) numbered i * side + j."""
    idx = np.arange(side * side).reshape(side, side)
    horizontal = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    vertical = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return np.concatenate([horizontal, vertical])


def adjacency(n: int, edges: np.ndarray) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges.tolist():
        adj[a].append(b)
        adj[b].append(a)
    for nbrs in adj:
        nbrs.sort()
    return adj


def bfs_ball(adj: list[list[int]], root: int, size: int) -> np.ndarray:
    """The first ``size`` vertices in BFS order from root (neighbours in
    index order)."""
    seen = {root}
    order = [root]
    queue = deque([root])
    while queue and len(order) < size:
        for y in adj[queue.popleft()]:
            if y not in seen:
                seen.add(y)
                order.append(y)
                queue.append(y)
                if len(order) == size:
                    break
    return np.array(order, dtype=np.int64)


def vertex_boundary(adj: list[list[int]], interior: np.ndarray) -> np.ndarray:
    inside = set(interior.tolist())
    out = {y for x in inside for y in adj[x] if y not in inside}
    return np.array(sorted(out), dtype=np.int64)


def centered(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """Standard normal values with zero weighted sum."""
    z = rng.standard_normal(len(weights))
    return z - (z @ weights) / weights.sum()


# ---------------------------------------------------------------- files


def _write(path: Path, lines) -> Path:
    path.write_text("".join(lines), encoding="utf-8")
    return path


def write_graph(path: Path, ids, edges, weights) -> Path:
    return _write(path, (f"{ids[a]}\t{ids[b]}\t{w!r}\n"
                         for (a, b), w in zip(edges.tolist(), weights.tolist())))


def write_pairs(path: Path, ids, index, values) -> Path:
    return _write(path, (f"{ids[i]}\t{v!r}\n" for i, v in zip(index.tolist(), values.tolist())))


def write_set(path: Path, ids, index) -> Path:
    return _write(path, (f"{ids[i]}\n" for i in index.tolist()))


def _closure_files(inst: Instance, out: Path, phi: np.ndarray) -> None:
    everyone = np.arange(len(inst.ids))
    inst.files["graph"] = write_graph(out / "graph.tsv", inst.ids, inst.edges, inst.weights)
    inst.files["measure"] = write_pairs(out / "measure.tsv", inst.ids, everyone, inst.m)
    inst.files["interior"] = write_set(out / "interior.txt", inst.ids, inst.interior)
    inst.files["phi"] = write_pairs(out / "phi.tsv", inst.ids, inst.boundary, phi)
    inst.phi["closure"] = phi


def _ball_instance(rng, out: Path, n: int, ball: int) -> Instance:
    edges, weights = tree_plus_edges(rng, n)
    m = rng.uniform(LOW, HIGH, n)
    adj = adjacency(n, edges)
    root = int(rng.integers(0, n))
    interior = bfs_ball(adj, root, ball)
    boundary = vertex_boundary(adj, interior)
    inst = Instance(ids=[str(i) for i in range(n)], edges=edges, weights=weights, m=m,
                    interior=interior, boundary=boundary, extra={"root": str(root)})
    _closure_files(inst, out, centered(rng, m[boundary]))
    return inst


# ---------------------------------------------------------------- workloads


def desk(seed: int, out: Path, n: int = 2000, ball: int = 1600, n_measure: int = 200) -> Instance:
    """Random graph (tree plus 2n edges) with a BFS-ball interior, plus a
    designated boundary of ``n_measure`` vertices for boundary-measure mode."""
    rng = np.random.default_rng([seed, 1])
    inst = _ball_instance(rng, out, n, ball)
    bm = np.sort(rng.choice(n, size=n_measure, replace=False))
    mu = rng.uniform(LOW, HIGH, n_measure)
    phi = centered(rng, mu)
    inst.files["bm_boundary"] = write_set(out / "bm_boundary.txt", inst.ids, bm)
    inst.files["bm_mu"] = write_pairs(out / "bm_mu.tsv", inst.ids, bm, mu)
    inst.files["bm_phi"] = write_pairs(out / "bm_phi.tsv", inst.ids, bm, phi)
    inst.phi["measure"] = phi
    inst.measure_mode = {"boundary": bm, "mu": mu}
    return inst


def chain(seed: int, out: Path, n: int = 40, ball: int = 30) -> Instance:
    """Small graph of the desk kind; the Monte Carlo walk starts at the
    ball's root."""
    return _ball_instance(np.random.default_rng([seed, 2]), out, n, ball)


def region(seed: int, out: Path, side: int = 316, patch: int = 20) -> Instance:
    """side x side grid with the central patch x patch square as interior.
    The patch closure's graph and measure are also written on their own,
    for ``kernel``."""
    rng = np.random.default_rng([seed, 3])
    edges = grid_edges(side)
    weights = rng.uniform(LOW, HIGH, len(edges))
    m = rng.uniform(LOW, HIGH, side * side)
    lo = (side - patch) // 2
    rows = np.arange(lo, lo + patch)
    interior = (rows[:, None] * side + rows[None, :]).ravel()
    adj = adjacency(side * side, edges)
    boundary = vertex_boundary(adj, interior)
    ids = [f"g{i}_{j}" for i in range(side) for j in range(side)]
    inst = Instance(ids=ids, edges=edges, weights=weights, m=m,
                    interior=interior, boundary=boundary)
    _closure_files(inst, out, centered(rng, m[boundary]))
    keep = inst.closure_edges()
    closure = np.concatenate([interior, boundary])
    inst.files["patch_graph"] = write_graph(out / "patch_graph.tsv", ids, edges[keep], weights[keep])
    inst.files["patch_measure"] = write_pairs(out / "patch_measure.tsv", ids, closure, m[closure])
    return inst


GENERATORS = {"desk": desk, "chain": chain, "region": region}
