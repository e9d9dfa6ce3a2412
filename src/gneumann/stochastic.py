"""Continuous-time Markov chain sampling and boundary local times.

The chain holds at a vertex for an exponential time with rate
(weighted degree / measure) and jumps to a neighbor with probability
proportional to the edge weight.  Pathwise time integrals are computed
from segment overlaps, never by time discretization: the integrands are
piecewise constant, so exactness is free.

Reproducibility: path i of an N-path run draws from the counter-based
stream keyed (seed, i), so runs are order-independent and bit-identical
across reruns and machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainMismatchError,
    HorizonExceededError,
    NonpositiveHorizonError,
    UnknownVertexError,
)
from .forms import VertexFunction
from .graphs import Measure, SubgraphClosure, WeightedGraph
from .solver import BoundaryData

__all__ = [
    "SamplePath",
    "MCEstimate",
    "sample_path",
    "sample_path_graph",
    "local_time",
    "shift_path",
    "mc_estimate",
    "mc_estimate_measure",
    "occupation_density",
]

_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One trajectory: visited states, exponential holding times, horizon.

    The final holding time is stored as drawn, so the holding times sum
    to at least the horizon; integral computations truncate at the
    horizon.
    """

    states: tuple[str, ...]
    holding_times: np.ndarray
    horizon: float
    seed: tuple[int, int]

    @property
    def jump_times(self) -> np.ndarray:
        """Cumulative segment end times."""
        return np.cumsum(self.holding_times)

    def state_at(self, t: float) -> str:
        """State occupied at time t (right-continuous)."""
        if t < 0 or t > self.horizon:
            raise HorizonExceededError(
                f"time {t} outside [0, {self.horizon}]", time=t, horizon=self.horizon
            )
        j = int(np.searchsorted(self.jump_times, t, side="right"))
        j = min(j, len(self.states) - 1)
        return self.states[j]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error."""

    value: float
    stderr: float
    samples: int
    horizon: float
    start: str
    seed: int


class _ChainParams:
    """Per-vertex jump data sliced from the graph's CSR rows."""

    def __init__(self, g: WeightedGraph, m: Measure):
        self.vertices = g.vertices
        deg = g.deg.tolist()
        self.rates = [d / m[x] for d, x in zip(deg, g.vertices)]
        self.neighbors = []
        self.cumprobs = []
        for i, d in enumerate(deg):
            lo, hi = g.indptr[i], g.indptr[i + 1]
            self.neighbors.append(g.indices[lo:hi].tolist())
            if d > 0:
                cum = np.cumsum(g.data[lo:hi]) / d
                cum[-1] = 1.0  # guard against roundoff undershoot
                self.cumprobs.append(cum.tolist())
            else:
                self.cumprobs.append([])


def _stream_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _normalize_stream(stream) -> tuple[int, int]:
    if isinstance(stream, tuple):
        seed, index = stream
        return int(seed), int(index)
    return int(stream), 0


def _walk(params: _ChainParams, i0: int, T: float, rng: np.random.Generator,
          weights=None, record: bool = False):
    """Simulate one trajectory until the accumulated time reaches T.

    Draw order is fixed: one uniform per waiting time (inverse CDF
    -log1p(-u)/rate), then one uniform per jump (linear scan of the
    cumulative table), so the stream consumption is reproducible.
    Returns (integral of weights dt truncated at T, states, holds).
    """
    rates = params.rates
    neighbors = params.neighbors
    cumprobs = params.cumprobs
    buf = rng.random(_BLOCK)
    ptr = 0
    t = 0.0
    x = i0
    acc = 0.0
    states = [i0] if record else None
    holds = [] if record else None
    while True:
        if ptr >= _BLOCK:
            buf = rng.random(_BLOCK)
            ptr = 0
        u = buf[ptr]
        ptr += 1
        rate = rates[x]
        hold = -math.log1p(-u) / rate if rate > 0.0 else math.inf
        if record:
            holds.append(hold)
        if weights is not None:
            w = weights[x]
            if w != 0.0:
                acc += w * (hold if t + hold < T else T - t)
        t += hold
        if t >= T:
            break
        if ptr >= _BLOCK:
            buf = rng.random(_BLOCK)
            ptr = 0
        u2 = buf[ptr]
        ptr += 1
        cum = cumprobs[x]
        j = 0
        while u2 >= cum[j]:
            j += 1
        x = neighbors[x][j]
        if record:
            states.append(x)
    return acc, states, holds


def _check_horizon(T: float) -> float:
    T = float(T)
    if not 0 < T < math.inf:
        raise NonpositiveHorizonError(f"horizon must be positive and finite, got {T}", horizon=T)
    return T


def sample_path_graph(g: WeightedGraph, m: Measure, x0, T: float, stream) -> SamplePath:
    """Simulate the chain on an arbitrary graph from x0 up to time T.

    ``stream`` is an integer seed or a (seed, index) pair; identical
    streams reproduce the path bit for bit.
    """
    T = _check_horizon(T)
    x0 = str(x0)
    if x0 not in g:
        raise UnknownVertexError(f"start vertex {x0!r} not in graph", vertex=x0)
    seed, index = _normalize_stream(stream)
    params = _ChainParams(g, m)
    _, states, holds = _walk(params, g.index(x0), T, _stream_rng(seed, index), record=True)
    return SamplePath(
        states=tuple(g.vertices[i] for i in states),
        holding_times=np.array(holds),
        horizon=T,
        seed=(seed, index),
    )


def sample_path(sub: SubgraphClosure, x0, T: float, stream) -> SamplePath:
    """Simulate the chain on the closure graph; see ``sample_path_graph``."""
    return sample_path_graph(sub.graph, sub.measure, x0, T, stream)


def local_time(path: SamplePath, boundary: Iterable, t: float) -> float:
    """Time spent in the boundary set up to t, as the exact sum of
    holding-segment overlaps with [0, t]."""
    if t < 0 or t > path.horizon:
        raise HorizonExceededError(
            f"time {t} outside [0, {path.horizon}]", time=t, horizon=path.horizon
        )
    bset = {str(v) for v in boundary}
    total = 0.0
    start = 0.0
    for state, hold in zip(path.states, path.holding_times):
        end = start + hold
        if state in bset:
            overlap = min(end, t) - start
            if overlap > 0:
                total += overlap
        if end >= t:
            break
        start = end
    return total


def shift_path(path: SamplePath, t: float) -> SamplePath:
    """The path restarted at time t: same trajectory over [t, horizon]."""
    if t < 0 or t > path.horizon:
        raise HorizonExceededError(
            f"time {t} outside [0, {path.horizon}]", time=t, horizon=path.horizon
        )
    ends = path.jump_times
    j = int(np.searchsorted(ends, t, side="right"))
    j = min(j, len(path.states) - 1)
    holds = path.holding_times[j:].copy()
    holds[0] = ends[j] - t
    return SamplePath(
        states=path.states[j:],
        holding_times=holds,
        horizon=path.horizon - t,
        seed=path.seed,
    )


def mc_estimate(sub: SubgraphClosure, phi, x0, T: float, N: int, seed: int,
                mu: Measure | None = None) -> MCEstimate:
    """Monte Carlo mean of the pathwise boundary integral
    integral_0^T phi(Y_s) 1{Y_s in boundary} ds over N independent paths.

    With ``mu`` given, boundary occupation is reweighted by mu/m, which
    evaluates the boundary-measure variant of the problem; the default
    is the plain vertex-boundary local time.
    """
    return mc_estimate_measure(
        sub.graph, sub.boundary, sub.measure,
        mu if mu is not None else sub.boundary_measure(),
        phi, x0, T, N, seed,
    )


def mc_estimate_measure(g: WeightedGraph, boundary: Sequence, m: Measure, mu: Measure,
                        phi, x0, T: float, N: int, seed: int) -> MCEstimate:
    """Boundary-measure Monte Carlo on an arbitrary graph: the chain runs
    on g itself and boundary occupation is weighted by phi * mu / m."""
    T = _check_horizon(T)
    if int(N) < 2:
        raise ValueError(f"need at least 2 samples, got {N}")
    N = int(N)
    x0 = str(x0)
    if x0 not in g:
        raise UnknownVertexError(f"start vertex {x0!r} not in graph", vertex=x0)
    boundary = tuple(str(v) for v in boundary)
    if isinstance(phi, BoundaryData):
        values = phi.values
    elif isinstance(phi, VertexFunction):
        values = phi
    else:
        values = VertexFunction(dict(phi))
    if values.domain != frozenset(boundary):
        raise DomainMismatchError(
            "boundary values not defined exactly on the boundary set",
            expected=sorted(boundary), got=sorted(values.domain),
        )

    weights = [0.0] * g.n
    for y in boundary:
        weights[g.index(y)] = values[y] * mu[y] / m[y]

    params = _ChainParams(g, m)
    i0 = g.index(x0)
    vals = np.empty(N)
    for i in range(N):
        acc, _, _ = _walk(params, i0, T, _stream_rng(seed, i), weights=weights)
        vals[i] = acc
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(N))
    return MCEstimate(value=value, stderr=stderr, samples=N, horizon=T, start=x0, seed=int(seed))


def occupation_density(paths: Sequence[SamplePath], t: float, y, m: Measure) -> float:
    """Fraction of paths sitting at y at time t, divided by m(y): an
    unbiased estimator of the heat kernel from the shared start vertex."""
    if not paths:
        raise ValueError("need at least one path")
    start = paths[0].states[0]
    y = str(y)
    hits = 0
    for p in paths:
        if p.states[0] != start:
            raise ValueError("paths do not share a start vertex")
        if t > p.horizon:
            raise HorizonExceededError(
                f"time {t} exceeds path horizon {p.horizon}", time=t, horizon=p.horizon
            )
        if p.state_at(t) == y:
            hits += 1
    return hits / (len(paths) * m[y])
