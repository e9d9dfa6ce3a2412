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
and 2j + 1 give the j-th holding time -log1p(-u)/rate and the j-th jump:
the first entry of the row's cumulative weight table above u, the entry
a linear scan reaches, which a guide table per row finds in O(1)
expected comparisons (Chen & Asau 1974; Devroye 1986, chapter III).
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

Parallelism: the estimator walks its paths in spans (of ``_BATCH`` paths,
or of ``_ROWS_HOLDS`` expected holds when it records them), on a fork pool
with one worker per CPU of the process's affinity mask, which ``taskset``
restricts, once a job has ``_POOL_HOLDS`` expected holds.  Results come
back in span order and each path depends only on (seed, i), so every
output is byte-identical to the serial run on any number of CPUs.  Pool
workers die with their parent.
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
    InputError,
    NonpositiveHorizonError,
    UnknownVertexError,
)
from .graphs import Measure, NeumannProblem, WeightedGraph
from .solver import _load, _problem

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
_BATCH = 2**14  # paths per _walk_paths call
_REFILL = 8192  # draw blocks per refill of _walk_paths, across its live paths
_MAX_BLOCKS = 64  # draw blocks per path and refill, when few paths are live
# expected holds from which a job runs on a pool: starting, using and
# closing one costs 20-35 ms, the time of about 6e4 holds of _walk_paths
_POOL_HOLDS = 2**15
# expected holds per span of a walk that records them, whose record and
# rows are held at once where the span is walked
_ROWS_HOLDS = 2**14
_PR_SET_PDEATHSIG = 1  # prctl(2) option: the signal a process gets when its parent dies


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
    each vertex and, for each row, the cumulative jump probabilities
    ``cum`` with a guide table over them (Chen & Asau 1974).

    ``cum`` is ``np.cumsum`` of each row's weights divided by its degree,
    with 1.0 at each row end, the same bits as a per-row cumsum: pass k
    adds entry k of every row longer than k.  Row i has ``nb[i]`` =
    2^ceil(log2 len_i) buckets, stored from ``gptr[i]`` in ``guide``;
    bucket b holds the first entry of the row whose ``cum`` exceeds
    b / nb[i].  ``b / nb[i]`` and ``u * nb[i]`` are exact, so the bucket of
    u starts at or before the entry the linear scan reaches, and on average
    at most len_i / nb[i] <= 1 entries lie between them."""

    def __init__(self, g: WeightedGraph, m: Measure):
        self.rates = g.deg / m._at(g.vertices)
        self.zero_rate = not bool((self.rates > 0.0).all())
        self.indptr = g.indptr
        self.indices = g.indices
        lens = g.indptr[1:] - g.indptr[:-1]
        # rows longer than k, for each k, and their starts, longest first
        longer = len(lens) - np.bincount(lens).cumsum()
        starts = g.indptr[(-lens).argsort()]
        cum = g.data.astype(float)  # a copy
        for k in range(1, len(longer) - 1):
            at = starts[:longer[k]] + k
            cum[at] += cum[at - 1]
        cum /= g.deg[g.rows]
        cum[g.indptr[1:][lens > 0] - 1] = 1.0  # guard against roundoff undershoot
        self.cum = cum
        self.nb = 1 << np.frexp(np.maximum(lens, 1) - 1)[1].astype(np.intp)
        self.gptr = np.concatenate(([0], self.nb.cumsum()))
        # bucket b's guide is the row start plus the count of the row's
        # entries with cum <= b / nb, that is ceil(cum * nb) <= b: each entry
        # is counted at that bucket and summed from there on.  One counted at
        # bucket nb (a row end, or a sum that rounds above 1.0) lands on the
        # next row's first bucket and adds to that row's start
        nb = self.nb[g.rows]
        first = np.fmin(np.ceil(cum * nb), nb).astype(np.intp)
        self.guide = np.bincount(self.gptr[g.rows] + first,
                                 minlength=self.gptr[-1] + 1)[:-1].cumsum()

    @functools.cached_property
    def lists(self) -> tuple[list, ...]:
        """Rates, indices, cum, guide, gptr and nb as lists, for the scalar
        walker."""
        return tuple(a.tolist() for a in
                     (self.rates, self.indices, self.cum, self.guide, self.gptr, self.nb))

    def jump(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next state of each path at x: the first entry of row x whose
        cumulative probability exceeds u, found from u's guide bucket.  Row
        ends hold 1.0 > u, so this is the entry the linear scan would
        reach."""
        j = self.guide[self.gptr[x] + (u * self.nb[x]).astype(np.intp)]
        while True:
            step = u >= self.cum[j]
            if not step.any():
                return self.indices[j]
            j += step


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
    -log1p(-u)/rate), then one uniform per jump (the first entry of the
    cumulative table above it, scanned from its guide bucket), so the
    stream consumption is reproducible.  Returns the visited states and
    the holding times.
    """
    rates, indices, cum, guide, gptr, nb = chain.lists
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
        # draws pair up from ptr 0 and _BLOCK is even: a jump never starts a block
        u2 = buf[ptr]
        ptr += 1
        j = guide[gptr[x] + int(u2 * nb[x])]
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
    used 2 * step draws, so one ``_uniforms`` call refills them together,
    about ``_REFILL`` draw blocks across them.  Each refill is laid out step
    by step, a row of hold and a row of jump draws per step, and a step
    takes log1p of the draws of its live paths only.  With
    ``record``, each refill appends one array triple: the positions in
    ``paths`` of the paths its steps moved, their states and holds (the
    last as drawn, as ``SamplePath`` keeps it), which ``_recorded_holds``
    orders by path.
    """
    paths = np.asarray(paths, dtype=np.uint64)
    vals = np.zeros(len(paths))
    live = np.arange(len(paths))  # positions in paths of the live paths
    x = np.full(len(paths), i0, dtype=np.intp)
    t = np.zeros(len(paths))
    acc = np.zeros(len(paths))
    step = 0
    while live.size:
        nblocks = min(_MAX_BLOCKS, max(1, _REFILL // live.size))
        u = _uniforms(seed, paths[live], step // 2, nblocks).T
        minus_u = np.negative(u[0::2], order="C")  # of the hold draws
        ujump = np.ascontiguousarray(u[1::2])
        rows = np.arange(live.size)
        steps = [] if record is not None else None
        for j in range(2 * nblocks):
            # libm, not the numpy ufunc, whose SIMD loops vary with the CPU,
            # and only for the paths still live
            neglog = -np.fromiter(map(math.log1p, minus_u[j][rows].tolist()), dtype=float,
                                  count=len(rows))
            rate = chain.rates[x]
            if chain.zero_rate:
                hold = np.full(len(x), math.inf)
                np.divide(neglog, rate, out=hold, where=rate > 0.0)
            else:
                hold = neglog / rate
            if steps is not None:
                steps.append((live, x, hold))
            # the overlap is finite (a hold of inf takes T - t), so a weight
            # of 0.0 or -0.0 leaves acc as it is
            acc += weights[x] * np.where(t + hold < T, hold, T - t)
            t += hold
            going = t < T
            if not going.all():
                vals[live[~going]] = acc[~going]
                live, rows, x, t, acc = live[going], rows[going], x[going], t[going], acc[going]
                if not live.size:
                    break
            x = chain.jump(x, ujump[j][rows])
        if steps is not None:
            record.append(tuple(map(np.concatenate, zip(*steps))))
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


def _adopt(task, parent: int) -> None:
    """Pool initializer: keep ``task``, and die with ``parent``, whose
    ``pool.terminate()`` a SIGKILL skips."""
    import ctypes
    import signal

    global _span_task
    _span_task = task
    prctl = getattr(ctypes.CDLL(None), "prctl", None)  # Linux
    if prctl is not None:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the signal was set
        os._exit(1)


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
    return multiprocessing.get_context("fork").Pool(workers, _adopt, (task, os.getpid()))


def _map_spans(task, n: int, span: int, holds: float) -> Iterator:
    """``task(lo, hi)`` for consecutive spans of range(n) of at most
    ``span`` items, in span order, on a fork pool of one worker per CPU
    for a job of ``holds >= _POOL_HOLDS`` expected holds, whose spans are
    also at most ceil(n / CPUs) so that every CPU gets one.  Workers
    inherit ``task`` at fork and receive only (lo, hi).  Smaller jobs, and
    processes where a pool cannot run, walk the same spans here.  Callers
    check their arguments first, so errors precede any pool.
    """
    workers = _cpu_count() if holds >= _POOL_HOLDS else 1
    if workers > 1:
        span = min(span, -(-n // workers))
    spans = [(lo, min(n, lo + span)) for lo in range(0, n, span)]
    pool = _fork_pool(task, min(workers, len(spans)))
    if pool is None:
        yield from (task(lo, hi) for lo, hi in spans)
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


def sample_path(sub: NeumannProblem, x0, T: float, stream) -> SamplePath:
    """Simulate the chain on the problem's graph; see ``sample_path_graph``."""
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


def mc_estimate(sub: NeumannProblem, phi, x0, T: float, N: int, seed: int) -> MCEstimate:
    """Monte Carlo mean of the pathwise boundary integral
    integral_0^T (phi * mu / m)(Y_s) 1{Y_s in boundary} ds over N
    independent paths, mu the problem's boundary measure: on a closure,
    the plain vertex-boundary local time of phi."""
    return _estimator(sub, phi, x0, T, N, seed)()


def _occupation_weights(sub: NeumannProblem, phi) -> np.ndarray:
    """phi * mu / m on the boundary and 0 elsewhere, in the graph's vertex
    order: the rate at which the boundary integral accrues at each vertex.
    phi passes ``solver._problem``'s check, centered or not."""
    problem = _problem(sub, phi, centered=False)
    return _load(problem) / problem[1]


def _estimator(sub: NeumannProblem, phi, x0, T: float, N: int, seed: int):
    """``mc_estimate`` in two steps: the arguments are checked and the jump
    table built before this returns ``run``.  A job whose path values (each
    within T max |phi * mu / m|) could overflow the squares the standard
    error sums is an ``IllConditionedError``.

    ``run()`` walks the N paths once, in spans of ``_BATCH`` paths on
    ``_map_spans``, and returns the estimate.  ``run(rows, write)`` also
    records every hold, in spans of ``_ROWS_HOLDS`` expected holds (at
    least one path): where a span is walked, in a pool worker or here,
    ``rows`` turns the span's ``_recorded_holds`` into a result that
    ``write`` receives here, in path order.
    """
    T = _check_horizon(T)
    N = int(N)
    if N < 2:
        raise InputError(f"need at least 2 samples, got {N}", samples=N)
    x0 = str(x0)
    g, m = sub.graph, sub.measure
    i0 = _start_index(g, x0)
    weights = _occupation_weights(sub, phi)
    bound = T * float(np.max(np.abs(weights)))
    if not math.isfinite(4.0 * N * bound * bound):  # (x - mean)^2 <= (2 bound)^2
        raise IllConditionedError(
            f"path values up to {bound} overflow the sum of their squares over {N} paths",
            bound=bound, samples=N)
    chain = _ChainParams(g, m)
    holds = _checked_holds(g, m, chain, T, N)

    def run(rows=None, write=None) -> MCEstimate:
        def walk(lo: int, hi: int):
            record = None if rows is None else []
            vals = _walk_paths(chain, i0, T, seed, np.arange(lo, hi), weights, record)
            return vals, None if rows is None else rows(*_recorded_holds(record, lo, hi - lo))

        parts = []
        span = _BATCH if rows is None else max(1, int(_ROWS_HOLDS * N / holds))
        for vals, result in _map_spans(walk, N, span, holds):
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
    """``mc_estimate`` on the problem of graph g with measure m and the
    designated boundary set carrying its own finite measure mu."""
    return mc_estimate(NeumannProblem(g, boundary, m, mu), phi, x0, T, N, seed)


def occupation_density(paths: Sequence[SamplePath], t: float, y, m: Measure) -> float:
    """Fraction of paths sitting at y at time t, divided by m(y): an
    unbiased estimator of the heat kernel from the shared start vertex."""
    if not paths:
        raise InputError("need at least one path", paths=0)
    start = paths[0].states[0]
    y = str(y)
    hits = 0
    for p in paths:
        if p.states[0] != start:
            raise InputError("paths do not share a start vertex", start=start,
                             other=p.states[0])
        if t > p.horizon:
            raise HorizonExceededError(
                f"time {t} exceeds path horizon {p.horizon}", time=t, horizon=p.horizon
            )
        if p.state_at(t) == y:
            hits += 1
    return hits / (len(paths) * m[y])
