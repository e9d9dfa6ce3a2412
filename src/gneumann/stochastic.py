"""Continuous-time Markov chain sampling and boundary local times.

The chain holds at a vertex for an exponential time with rate
(weighted degree / measure) and jumps to a neighbor with probability
proportional to the edge weight.  Pathwise time integrals are computed
from segment overlaps, never by time discretization: the integrands are
piecewise constant, so exactness is free.

Reproducibility: path i of an N-path run draws from the counter-based
stream keyed (seed, i), so runs are order-independent and bit-identical
across reruns and machines.  Draw k of path i is word k mod 4 of the
Philox4x64-10 block with counter (k // 4 + 1, 0, 0, 0) and key
(seed mod 2^64, i) (Salmon et al., SC'11), mapped to (w >> 11) * 2^-53:
the stream of ``np.random.Philox(key=(seed, i)).random()``.  Draws 2j
and 2j + 1 give the j-th holding time -log1p(-u)/rate and the j-th jump.
The Monte Carlo estimator advances all paths of a batch together and
computes these draws in numpy (``_uniforms``).  The CLI's
``--dump-paths`` records each hold in that same walk, so one walk gives
both the estimate and the path rows.  The public path API
(``sample_path``, ``sample_paths``) runs the scalar walker, which one
long path runs faster.  Both walkers take log1p from libm
(``math.log1p``), because numpy's own SIMD log1p ufunc can differ from
it in the last bit depending on the CPU, which would make seeded
estimates machine-dependent.

A walk that cannot end is refused before it starts, with an
``IllConditionedError``: a holding rate or the expected holds that is
not finite, or T times the largest rate at 2^52 or above, where the
clock ``t += hold`` stops advancing.

Parallelism: a job of at least ``_POOL_HOLDS`` expected holds (the
estimator, with or without recorded holds) cuts its paths into spans
and walks them on a fork pool with one worker per CPU of the process's
affinity mask, which ``taskset`` restricts.  Results come back in span
order and each path depends only on (seed, i), so every output is
byte-identical to the serial run on any number of CPUs.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    HorizonExceededError,
    IllConditionedError,
    NonpositiveHorizonError,
    UnknownVertexError,
)
from .graphs import Measure, SubgraphClosure, WeightedGraph
from .solver import _boundary_values

__all__ = [
    "SamplePath",
    "MCEstimate",
    "sample_path",
    "sample_path_graph",
    "sample_paths",
    "local_time",
    "shift_path",
    "mc_estimate",
    "mc_estimate_measure",
    "occupation_density",
]

_BLOCK = 1024  # uniforms per refill of the single-path walker
_BATCH = 4096  # paths per _walk_paths call, and draw blocks per refill across them
_MAX_BLOCKS = 64  # draw blocks per path and refill, when few paths are live
# expected holds from which a job runs on a pool: starting, using and
# closing one costs 20-35 ms, the time of about 6e4 holds of _walk_paths
_POOL_HOLDS = 2**15
# paths per span of a walk that records its holds: on a pool, and in the
# calling process, where a span's record and rows are all held at once
_ROWS_SPAN = 512
_ROWS_SERIAL = 256


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
        _check_within(self, t)
        j = int(np.searchsorted(self.jump_times, t, side="right"))
        j = min(j, len(self.states) - 1)
        return self.states[j]


def _check_within(path: SamplePath, t: float) -> None:
    if t < 0 or t > path.horizon:
        raise HorizonExceededError(
            f"time {t} outside [0, {path.horizon}]", time=t, horizon=path.horizon
        )


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
    """Per-vertex jump data in the graph's CSR layout: the holding rate of
    each vertex and, for each row, the cumulative jump probabilities."""

    def __init__(self, g: WeightedGraph, m: Measure):
        deg = g.deg.tolist()
        self.rates = g.deg / m._at(g.vertices)
        self.indptr = g.indptr
        self.indices = g.indices
        self.cum = np.zeros(len(g.data))
        for i, d in enumerate(deg):
            lo, hi = g.indptr[i], g.indptr[i + 1]
            if d > 0:
                self.cum[lo:hi] = np.cumsum(g.data[lo:hi]) / d
                self.cum[hi - 1] = 1.0  # guard against roundoff undershoot
        # bisection steps that resolve the longest row
        self.depth = int(np.diff(g.indptr).max(initial=0)).bit_length()

    @functools.cached_property
    def lists(self) -> tuple[list, list, list, list]:
        """Rates, indptr, indices and cum as lists, for the scalar walker."""
        return self.rates.tolist(), self.indptr.tolist(), self.indices.tolist(), self.cum.tolist()

    def jump(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next state of each path at x: the first entry of row x whose
        cumulative probability exceeds u, found by bisection.  Row ends
        hold 1.0 > u, so this is the entry the linear scan would reach."""
        lo = self.indptr[x]
        hi = self.indptr[x + 1] - 1
        for _ in range(self.depth):
            mid = (lo + hi) >> 1
            right = (u >= self.cum[mid]) & (lo < hi)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        return self.indices[lo]


_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product of the constant a and
    each word of b, from 32-bit halves so that no partial sum overflows."""
    a0, a1 = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b0, b1 = b & _LO32, b >> _32
    mid = a1 * b0
    mid += (a0 * b0) >> _32
    carry = a0 * b1
    carry += mid & _LO32
    hi = a1 * b1
    hi += mid >> _32
    hi += carry >> _32
    return hi, np.uint64(a) * b


def _uniforms(seed: int, paths: np.ndarray, first_block: int, nblocks: int) -> np.ndarray:
    """Draws 4*first_block .. 4*(first_block+nblocks)-1 of each path's
    stream, one row per path: Philox4x64-10 with counter (b+1, 0, 0, 0)
    for block b and key (seed mod 2^64, path), each word w mapped to
    (w >> 11) * 2^-53.  This is ``np.random.Philox(key=(seed, path))``'s
    ``random()`` stream bit for bit."""
    k0 = int(seed) % 2**64
    k1 = np.asarray(paths, dtype=np.uint64)[:, None]
    x0 = np.arange(first_block + 1, first_block + nblocks + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)  # arrays: uint64 wraps silently
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)
    return (words.reshape(len(k1), 4 * nblocks) >> np.uint64(11)) * 2.0**-53


def _stream_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _walk(chain: _ChainParams, i0: int, T: float, rng: np.random.Generator):
    """Simulate one trajectory until the accumulated time reaches T.

    Draw order is fixed: one uniform per waiting time (inverse CDF
    -log1p(-u)/rate), then one uniform per jump (linear scan of the
    cumulative table), so the stream consumption is reproducible.
    Returns the visited states and the holding times.
    """
    rates, indptr, indices, cum = chain.lists
    buf = rng.random(_BLOCK)
    ptr = 0
    t = 0.0
    x = i0
    states = [i0]
    holds = []
    while True:
        if ptr >= _BLOCK:
            buf = rng.random(_BLOCK)
            ptr = 0
        u = buf[ptr]
        ptr += 1
        rate = rates[x]
        hold = -math.log1p(-u) / rate if rate > 0.0 else math.inf
        holds.append(hold)
        t += hold
        if t >= T:
            break
        if ptr >= _BLOCK:
            buf = rng.random(_BLOCK)
            ptr = 0
        u2 = buf[ptr]
        ptr += 1
        j = indptr[x]
        while u2 >= cum[j]:
            j += 1
        x = indices[j]
        states.append(x)
    return states, holds


def _walk_paths(chain: _ChainParams, i0: int, T: float, seed: int,
                paths: np.ndarray, weights: np.ndarray, record: list | None = None) -> np.ndarray:
    """Integral over [0, T] of weights along each path, all paths at once.

    Each step moves every live path by one hold and one jump, with the
    draws and the arithmetic of ``_walk``, so path i's value is bit for
    bit the one ``_walk`` on stream (seed, i) gives.  Live paths have all
    used 2 * step draws, so one ``_uniforms`` call refills them together.
    With ``record``, each step also appends the positions in ``paths`` of
    the paths it moves, their states and their holds (the last as drawn,
    as ``SamplePath`` keeps it); ``_recorded_holds`` orders them by path.
    """
    paths = np.asarray(paths, dtype=np.uint64)
    vals = np.zeros(len(paths))
    live = np.arange(len(paths))  # positions in paths of the live paths
    x = np.full(len(paths), i0, dtype=np.intp)
    t = np.zeros(len(paths))
    acc = np.zeros(len(paths))
    step = 0
    while live.size:
        nblocks = min(_MAX_BLOCKS, max(1, _BATCH // live.size))
        u = _uniforms(seed, paths[live], step // 2, nblocks)
        # libm, not the numpy ufunc, whose SIMD loops vary with the CPU
        neglog = np.fromiter(map(math.log1p, (-u[:, 0::2]).ravel().tolist()),
                             dtype=float, count=u.size // 2)
        neglog = -neglog.reshape(live.size, 2 * nblocks)
        rows = np.arange(live.size)
        for j in range(2 * nblocks):
            rate = chain.rates[x]
            hold = np.full(len(x), math.inf)
            np.divide(neglog[rows, j], rate, out=hold, where=rate > 0.0)
            if record is not None:
                record.append((live, x, hold))
            w = weights[x]
            hit = w != 0.0
            if hit.any():
                th, hh = t[hit], hold[hit]
                acc[hit] += w[hit] * np.where(th + hh < T, hh, T - th)
            t += hold
            going = t < T
            if not going.all():
                vals[live[~going]] = acc[~going]
                live, rows, x, t, acc = live[going], rows[going], x[going], t[going], acc[going]
                if not live.size:
                    break
            x = chain.jump(x, u[rows, 2 * j + 1])
        step += 2 * nblocks
    return vals


def _recorded_holds(record: list, lo: int, n: int) -> tuple[np.ndarray, ...]:
    """The holds a walk of paths lo .. lo+n-1 recorded, path by path and
    step by step: each hold's path id, step number, state index and time."""
    pos = np.concatenate([p for p, _, _ in record])
    order = np.argsort(pos, kind="stable")  # a path's steps stay in walk order
    lengths = np.bincount(pos, minlength=n)
    steps = np.arange(len(pos)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    states = np.concatenate([x for _, x, _ in record])[order]
    holds = np.concatenate([h for _, _, h in record])[order]
    return lo + np.repeat(np.arange(n), lengths), steps, states, holds


def _check_horizon(T: float) -> float:
    T = float(T)
    if not 0 < T < math.inf:
        raise NonpositiveHorizonError(f"horizon must be positive and finite, got {T}", horizon=T)
    return T


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset``
    sets, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_span_task = None  # in a pool worker: the task it inherited at fork


def _adopt(task) -> None:
    global _span_task
    _span_task = task


def _run_span(span: tuple[int, int]):
    return _span_task(*span)


def _fork_pool(task, workers: int):
    """A pool of ``workers`` fork workers that inherit ``task``, or None
    where none can run: one worker, a daemonic process (a pool worker may
    not have children), no fork start method, or other Python threads,
    whose held locks a forked child would inherit."""
    if workers < 2:
        return None
    import multiprocessing
    import threading

    if (multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return None
    return multiprocessing.get_context("fork").Pool(workers, _adopt, (task,))


def _map_spans(task, n: int, span: int, holds: float, serial_span: int | None = None) -> Iterator:
    """``task(lo, hi)`` for consecutive spans of range(n), in span order.

    A job of ``holds >= _POOL_HOLDS`` expected holds runs on a fork pool
    of one worker per CPU, with spans of at most ``span`` items and at
    most ceil(n / CPUs), so every CPU gets one.  Workers inherit ``task``
    at fork and receive only (lo, hi).  Smaller jobs, and processes where
    a pool cannot run, walk spans of ``serial_span or span`` items here.
    Callers check their arguments first, so errors precede any pool.
    """
    workers = _cpu_count() if holds >= _POOL_HOLDS else 1
    if workers > 1:
        span = min(span, -(-n // workers))
    spans = [(lo, min(n, lo + span)) for lo in range(0, n, span)]
    pool = _fork_pool(task, min(workers, len(spans)))
    if pool is None:
        step = serial_span or span
        for lo in range(0, n, step):
            yield task(lo, min(n, lo + step))
        return
    try:
        yield from pool.imap(_run_span, spans)
    finally:
        pool.terminate()


def _expected_holds(g: WeightedGraph, m: Measure, T: float, N: int) -> float:
    """N (1 + T sum(deg) / sum(m)): the holds of N paths of length T at the
    chain's stationary mean jump rate, the size of a job for ``_map_spans``."""
    return N * (1.0 + T * float(g.deg.sum()) / m.total)


def _checked_holds(g: WeightedGraph, m: Measure, chain: _ChainParams, T: float, N: int) -> float:
    """``_expected_holds`` of N paths, once the walks are known to end: a
    holding rate or the expected holds that is not finite, or a largest
    rate r with T * r >= 2^52, where the mean hold 1/r is below the
    clock's rounding step near T and ``t += hold`` stops advancing, is an
    ``IllConditionedError``."""
    holds = _expected_holds(g, m, T, N)
    rate = float(chain.rates.max(initial=0.0))
    if not (T * rate < 2.0**52 and math.isfinite(holds)):  # NaN fails too
        raise IllConditionedError(
            f"a walk to horizon {T} cannot end: the largest holding rate is {rate}, and "
            f"T * rate must stay below 2^52 and the expected holds ({holds}) finite",
            rate=rate, horizon=T)
    return holds


def _start_index(g: WeightedGraph, x0: str) -> int:
    if x0 not in g:
        raise UnknownVertexError(f"start vertex {x0!r} not in graph", vertex=x0)
    return g.index(x0)


def sample_paths(g: WeightedGraph, m: Measure, x0, T: float, seed: int,
                 paths: Iterable[int]) -> Iterator[SamplePath]:
    """Simulate the chain on an arbitrary graph from x0 up to time T, one
    path per index in ``paths``, path i on stream (seed, i); the paths
    share one jump table.  Arguments are checked, and the table built,
    before this returns."""
    T = _check_horizon(T)
    i0 = _start_index(g, str(x0))
    seed = int(seed)
    chain = _ChainParams(g, m)
    _checked_holds(g, m, chain, T, 1)

    def sample(index: int) -> SamplePath:
        states, holds = _walk(chain, i0, T, _stream_rng(seed, index))
        return SamplePath(
            states=tuple(g.vertices[i] for i in states),
            holding_times=np.array(holds),
            horizon=T,
            seed=(seed, int(index)),
        )

    return map(sample, paths)


def sample_path_graph(g: WeightedGraph, m: Measure, x0, T: float, stream) -> SamplePath:
    """One path of ``sample_paths``.

    ``stream`` is an integer seed or a (seed, index) pair; identical
    streams reproduce the path bit for bit.
    """
    seed, index = stream if isinstance(stream, tuple) else (stream, 0)
    return next(sample_paths(g, m, x0, T, seed, [int(index)]))


def sample_path(sub: SubgraphClosure, x0, T: float, stream) -> SamplePath:
    """Simulate the chain on the closure graph; see ``sample_path_graph``."""
    return sample_path_graph(sub.graph, sub.measure, x0, T, stream)


def local_time(path: SamplePath, boundary: Iterable, t: float) -> float:
    """Time spent in the boundary set up to t, as the exact sum of
    holding-segment overlaps with [0, t]."""
    _check_within(path, t)
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
    _check_within(path, t)
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


def _occupation_weights(g: WeightedGraph, boundary, m: Measure, mu: Measure,
                        phi) -> np.ndarray:
    """phi * mu / m on the checked boundary and 0 elsewhere, in g's vertex
    order: the rate at which the boundary integral accrues at each vertex.
    mu, not the measure a ``BoundaryData`` carries, weights the occupation."""
    boundary, values, bidx = _boundary_values(g, boundary, phi)
    weights = np.zeros(g.n)
    weights[bidx] = values.to_vector(boundary) * mu._at(boundary) / m._at(boundary)
    return weights


def _estimator(g: WeightedGraph, boundary: Sequence, m: Measure, mu: Measure,
               phi, x0, T: float, N: int, seed: int):
    """``mc_estimate_measure`` in two steps: the arguments are checked and
    the jump table built before this returns ``run``.

    ``run()`` walks the N paths once, in spans on ``_map_spans``, and
    returns the estimate.  ``run(rows, write)`` also records every hold:
    where a span is walked, in a pool worker or here, ``rows`` turns the
    span's ``_recorded_holds`` into a result that ``write`` receives here,
    in path order.  Recorded spans are ``_ROWS_SPAN`` paths on a pool and
    ``_ROWS_SERIAL`` in this process, which keeps their rows small.
    """
    T = _check_horizon(T)
    if int(N) < 2:
        raise ValueError(f"need at least 2 samples, got {N}")
    N = int(N)
    x0 = str(x0)
    i0 = _start_index(g, x0)
    weights = _occupation_weights(g, boundary, m, mu, phi)
    chain = _ChainParams(g, m)
    holds = _checked_holds(g, m, chain, T, N)

    def run(rows=None, write=None) -> MCEstimate:
        def walk(lo: int, hi: int):
            if rows is None:
                return _walk_paths(chain, i0, T, seed, np.arange(lo, hi), weights), None
            record: list = []
            vals = _walk_paths(chain, i0, T, seed, np.arange(lo, hi), weights, record)
            return vals, rows(*_recorded_holds(record, lo, hi - lo))

        if rows is None:
            spans = _map_spans(walk, N, _BATCH, holds)
        else:
            spans = _map_spans(walk, N, _ROWS_SPAN, holds, serial_span=_ROWS_SERIAL)
        parts = []
        for vals, result in spans:
            parts.append(vals)
            if rows is not None:
                write(result)
        vals = np.concatenate(parts)
        value = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(N))
        return MCEstimate(value=value, stderr=stderr, samples=N, horizon=T, start=x0,
                          seed=int(seed))

    return run


def mc_estimate_measure(g: WeightedGraph, boundary: Sequence, m: Measure, mu: Measure,
                        phi, x0, T: float, N: int, seed: int) -> MCEstimate:
    """Boundary-measure Monte Carlo on an arbitrary graph: the chain runs
    on g itself and boundary occupation is weighted by phi * mu / m."""
    return _estimator(g, boundary, m, mu, phi, x0, T, N, seed)()


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
