import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import gneumann as gn
from gneumann import SamplePath, VertexFunction, stochastic
from gneumann.errors import (
    HorizonExceededError,
    NonpositiveHorizonError,
    UnknownVertexError,
)
from instances import random_centered_phi, random_closure

# KS critical value at the 0.1% level: c(alpha) / sqrt(n)
KS_C_001 = 1.94947


@pytest.fixture
def edge_closure(two_vertex):
    g, m = two_vertex
    return gn.closure_subgraph(g, ["1"], m)


def _transitions_from(path, origin):
    outs = []
    for a, b in zip(path.states, path.states[1:]):
        if a == origin:
            outs.append(b)
    return outs


def _holds_at(path, vertex):
    return [h for s, h in zip(path.states, path.holding_times) if s == vertex]


def test_path_structure(p3_closure):
    path = gn.sample_path(p3_closure, "1", 50.0, (7, 0))
    assert path.states[0] == "1"
    assert float(np.sum(path.holding_times)) >= path.horizon
    for a, b in zip(path.states, path.states[1:]):
        assert a != b
        assert p3_closure.graph.weight(a, b) > 0


def test_sample_path_validation(p3_closure):
    with pytest.raises(NonpositiveHorizonError):
        gn.sample_path(p3_closure, "1", 0.0, 1)
    with pytest.raises(UnknownVertexError):
        gn.sample_path(p3_closure, "9", 1.0, 1)


def test_reproducibility_bit_identical(p3_closure):
    a = gn.sample_path(p3_closure, "2", 25.0, (123, 4))
    b = gn.sample_path(p3_closure, "2", 25.0, (123, 4))
    assert a.states == b.states
    assert np.array_equal(a.holding_times, b.holding_times)
    c = gn.sample_path(p3_closure, "2", 25.0, (123, 5))
    assert a.states != c.states or not np.array_equal(a.holding_times, c.holding_times)


def test_holding_time_mean_unit_rate(edge_closure):
    # both vertices have weighted degree 1 and unit mass: rate 1
    path = gn.sample_path(edge_closure, "1", 1.0e5, (11, 0))
    holds = np.asarray(path.holding_times[:-1])  # last one may be censored
    assert holds.size > 90_000
    assert abs(float(np.mean(holds)) - 1.0) <= 0.01


def test_jump_distribution_p3(p3_closure):
    # from the middle vertex the chain jumps to either end with probability 1/2
    path = gn.sample_path(p3_closure, "2", 1.6e5, (5, 0))
    outs = _transitions_from(path, "2")
    n = len(outs)
    assert n >= 100_000
    freq1 = outs.count("1") / n
    sigma = math.sqrt(0.25 / n)
    assert abs(freq1 - 0.5) <= 0.005
    assert abs(freq1 - 0.5) <= 4 * sigma


def test_jump_frequencies_match_weights_multinomial():
    g = gn.build_graph(
        ["c", "a", "b", "d"],
        [("c", "a", 0.5), ("c", "b", 1.5), ("c", "d", 2.0),
         ("a", "b", 1.0), ("b", "d", 1.0)],
    )
    sub = gn.closure_subgraph(g, ["c", "a"], gn.Measure.uniform(g.vertices))
    path = gn.sample_path(sub, "c", 1.2e5, (19, 0))
    outs = _transitions_from(path, "c")
    n = len(outs)
    assert n >= 100_000
    deg = sub.graph.degree("c")
    for y in sub.graph.neighbors("c"):
        p = sub.graph.weight("c", y) / deg
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(outs.count(y) / n - p) <= 4 * sigma


def test_scaling_measure_halves_rates(p3, p3_closure):
    doubled = gn.closure_subgraph(p3, ["2"], gn.Measure.uniform(p3.vertices, 2.0))
    a = gn.sample_path(p3_closure, "2", 40.0, (3, 1))
    b = gn.sample_path(doubled, "2", 80.0, (3, 1))
    # same uniforms: the jump chain is untouched and every holding time
    # exactly doubles
    k = min(len(a.states), len(b.states))
    assert a.states[:k] == b.states[:k]
    np.testing.assert_allclose(b.holding_times[:k], 2.0 * a.holding_times[:k], rtol=0, atol=0)


def test_holding_times_ks_exponential(p3_closure):
    path = gn.sample_path(p3_closure, "2", 2.5e4, (29, 0))
    holds = _holds_at(path, "2")[:10_000]
    n = len(holds)
    assert n == 10_000
    rate = p3_closure.graph.degree("2") / p3_closure.measure["2"]
    stat = scipy.stats.kstest(holds, "expon", args=(0, 1 / rate)).statistic
    assert stat <= KS_C_001 / math.sqrt(n)


def test_local_time_examples():
    never = SamplePath(states=("2",), holding_times=np.array([5.0]), horizon=5.0, seed=(0, 0))
    assert gn.local_time(never, ["1", "3"], 5.0) == 0.0

    onseg = SamplePath(states=("1",), holding_times=np.array([0.7]), horizon=0.7, seed=(0, 0))
    assert gn.local_time(onseg, ["1"], 0.5) == 0.5

    path = SamplePath(states=("1", "2", "1"), holding_times=np.array([0.25, 0.5, 1.0]),
                      horizon=1.5, seed=(0, 0))
    # boundary = everything: the local time is the elapsed time itself
    assert gn.local_time(path, ["1", "2"], 1.2) == 1.2
    # only vertex 1: a full first segment plus the part after t=0.75
    assert gn.local_time(path, ["1"], 1.0) == pytest.approx(0.25 + 0.25, abs=1e-15)


def test_local_time_horizon_guard(p3_closure):
    path = gn.sample_path(p3_closure, "1", 2.0, (1, 0))
    with pytest.raises(HorizonExceededError):
        gn.local_time(path, ["1"], 2.5)


def test_local_time_additivity(p3_closure):
    boundary = p3_closure.boundary
    for i in range(5):
        path = gn.sample_path(p3_closure, "2", 30.0, (71, i))
        t, s = 11.3, 7.9
        total = gn.local_time(path, boundary, t + s)
        first = gn.local_time(path, boundary, t)
        rest = gn.local_time(gn.shift_path(path, t), boundary, s)
        assert total == pytest.approx(first + rest, abs=1e-12)


def test_mc_estimate_zero_data(p3_closure):
    phi = gn.BoundaryData.for_closure(p3_closure, {"1": 0.0, "3": 0.0})
    est = gn.mc_estimate(p3_closure, phi, "1", 5.0, 100, 1)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_mc_estimate_needs_two_samples(p3_closure, p3_phi):
    with pytest.raises(ValueError):
        gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 1, 1)


def test_mc_estimate_reproducible(p3_closure, p3_phi):
    a = gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 500, 13)
    b = gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 500, 13)
    assert a.value == b.value and a.stderr == b.stderr


def test_mc_stderr_scales_with_sample_count(p3_closure, p3_phi):
    small = gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 1000, 5)
    large = gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 4000, 5)
    ratio = small.stderr / large.stderr
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_mc_matches_spectral_reference(p3_closure, p3_phi):
    spec = gn.eigendecompose(p3_closure.graph, p3_closure.measure)
    ref = gn.heat_time_integral(
        spec, VertexFunction({"1": 1.0, "2": 0.0, "3": -1.0}), 5.0
    )["1"]
    est = gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 4000, 2)
    assert abs(est.value - ref) <= 3 * est.stderr


def test_mc_long_horizon_matches_direct_solution(p3_closure, p3_phi):
    spec = gn.eigendecompose(p3_closure.graph, p3_closure.measure)
    T = 40.0 / spec.spectral_gap
    est = gn.mc_estimate(p3_closure, p3_phi, "1", T, 4000, 3)
    u = gn.solve_direct(p3_closure, p3_phi).u["1"]
    c1, c2 = gn.mixing_constants(spec, 1e-9)
    mass = sum(abs(p3_phi.values[y]) * p3_closure.measure[y] for y in p3_closure.boundary)
    tail = c1 * mass * math.exp(-c2 * T) / c2
    assert abs(est.value - u) <= max(3 * est.stderr, tail)


def test_mc_revuz_consistency_random_closures():
    rng = np.random.default_rng(61)
    for seed in (101, 102):
        sub = random_closure(rng, n_min=3, n_max=6)
        phi = random_centered_phi(rng, sub)
        spec = gn.eigendecompose(sub.graph, sub.measure)
        T = 3.0 / spec.spectral_gap
        x0 = sub.interior[0]
        fvals = {v: (phi.values[v] if v in sub.boundary_set else 0.0) for v in sub.closure}
        ref = gn.heat_time_integral(spec, VertexFunction(fvals), T)[x0]
        est = gn.mc_estimate(sub, phi, x0, T, 3000, seed)
        assert abs(est.value - ref) <= 3 * max(est.stderr, 1e-12)


def test_mc_boundary_measure_reweighting(p3_closure, p3_phi):
    # doubling mu doubles the estimate pathwise, exactly
    mu2 = gn.Measure({y: 2.0 * p3_closure.measure[y] for y in p3_closure.boundary})
    base = gn.mc_estimate(p3_closure, p3_phi, "1", 5.0, 400, 9)
    problem2 = gn.NeumannProblem(p3_closure.graph, p3_closure.boundary, p3_closure.measure, mu2)
    scaled = gn.mc_estimate(problem2, p3_phi.values, "1", 5.0, 400, 9)
    assert scaled.value == pytest.approx(2.0 * base.value, rel=1e-12)


def test_occupation_density_t0(p3_closure):
    paths = [gn.sample_path(p3_closure, "2", 1.0, (17, i)) for i in range(50)]
    m = p3_closure.measure
    assert gn.occupation_density(paths, 0.0, "2", m) == pytest.approx(1.0 / m["2"])
    assert gn.occupation_density(paths, 0.0, "1", m) == 0.0


def test_occupation_density_sums_to_one(p3_closure):
    # dyadic path count and unit masses keep the arithmetic exact
    paths = [gn.sample_path(p3_closure, "2", 1.0, (23, i)) for i in range(256)]
    m = p3_closure.measure
    total = sum(gn.occupation_density(paths, 0.6, y, m) * m[y] for y in p3_closure.closure)
    assert total == 1.0


def test_occupation_density_estimates_heat_kernel(edge_closure):
    spec = gn.eigendecompose(edge_closure.graph, edge_closure.measure)
    p_true = gn.heat_kernel(spec, 0.5).entry("1", "1")
    n = 20_000
    # one jump table for all paths; each is sample_path(edge_closure, "1", 0.5, (41, i))
    paths = list(gn.sample_paths(edge_closure.graph, edge_closure.measure, "1", 0.5, 41, range(n)))
    dens = gn.occupation_density(paths, 0.5, "1", edge_closure.measure)
    sigma = math.sqrt(p_true * (1 - p_true) / n)
    assert abs(dens - p_true) <= 3 * sigma


def test_occupation_density_horizon_guard(p3_closure):
    paths = [gn.sample_path(p3_closure, "2", 1.0, (3, i)) for i in range(3)]
    with pytest.raises(HorizonExceededError):
        gn.occupation_density(paths, 1.5, "2", p3_closure.measure)


# ---- the path-vectorized walker against numpy's Philox and the scalar walker


def _numpy_draws(seed, index, count):
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def _scalar_integral(chain, i0, T, seed, index, weights):
    """The boundary integral recomputed from the scalar walker's record,
    with the accumulation order of the vectorized walker."""
    states, holds = stochastic._walk(chain, i0, T, stochastic._stream_rng(seed, index))
    acc = 0.0
    t = 0.0
    for x, hold in zip(states, holds):
        w = weights[x]
        if w != 0.0:
            acc += w * (hold if t + hold < T else T - t)
        t += hold
    return acc


@pytest.mark.parametrize("seed", [0, 1, 7919, 2**63 + 5, -1])
@pytest.mark.parametrize("index", [0, 2**40])
def test_uniforms_match_numpy_philox(seed, index):
    ref = _numpy_draws(seed, index, 4 * 301)
    got = stochastic._uniforms(seed, np.array([index]), 0, 301)
    assert got.shape == (1, 4 * 301)
    assert np.array_equal(got[0].view(np.uint64), ref.view(np.uint64))
    # a window of blocks, for several paths in one call
    rows = stochastic._uniforms(seed, np.array([index, index + 1]), 7, 3)
    assert np.array_equal(rows[0], ref[28:40])
    assert np.array_equal(rows[1], _numpy_draws(seed, index + 1, 40)[28:])


# no shrinking: the inputs are seeds, and each example walks 3 * 4097 paths
@settings(max_examples=8, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.05, max_value=3.0),
       st.integers(min_value=-(2**63), max_value=2**64 - 1))
def test_walk_paths_equals_scalar_walk(instance_seed, T, seed):
    rng = np.random.default_rng(instance_seed)
    sub = random_closure(rng, n_min=3, n_max=8)
    g = sub.graph
    weights = np.zeros(g.n)
    for y in sub.boundary:
        weights[g.index(y)] = rng.standard_normal()
    chain = stochastic._ChainParams(g, sub.measure)
    i0 = int(rng.integers(g.n))
    batch = stochastic._BATCH
    ref = np.array([_scalar_integral(chain, i0, T, seed, i, weights.tolist())
                    for i in range(batch + 1)])
    for n in (batch - 1, batch, batch + 1):
        vals = stochastic._walk_paths(chain, i0, T, seed, np.arange(n), weights)
        # bit for bit, and the first n paths do not depend on how many follow
        assert np.array_equal(vals.view(np.uint64), ref[:n].view(np.uint64))


def test_jump_bisection_equals_linear_scan_at_ties():
    rng = np.random.default_rng(5)
    sub = random_closure(rng, n_min=6, n_max=12)
    chain = stochastic._ChainParams(sub.graph, sub.measure)
    for x in range(sub.graph.n):
        lo, hi = chain.indptr[x], chain.indptr[x + 1]
        row = chain.cum[lo:hi]
        us = np.unique(np.concatenate([[0.0, np.nextafter(1.0, 0.0)], row[:-1],
                                       np.nextafter(row[:-1], 0.0)]))
        got = chain.jump(np.full(us.size, x), us)
        scan = [chain.indices[lo + int(np.sum(u >= row))] for u in us]
        assert got.tolist() == scan


def _hub_graph(seed):
    """A random closure's graph plus a hub joined to every vertex and to 40
    leaves, and 3 isolated vertices (degree-0 rows), every weight
    10^U(-300, 3)."""
    rng = np.random.default_rng(seed)
    g = random_closure(rng, n_min=3, n_max=10).graph
    leaves = [f"leaf{k}" for k in range(40)]
    edges = [(x, y) for x, y, _ in g.edges()] + [("hub", y) for y in (*g.vertices, *leaves)]
    weights = 10.0 ** rng.uniform(-300, 3, len(edges))
    vertices = ["hub", *g.vertices, *leaves, "lone0", "lone1", "lone2"]
    rng.shuffle(vertices)
    return gn.build_graph(vertices, [(x, y, w) for (x, y), w in zip(edges, weights)])


@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cumulative_table_is_the_per_row_cumsum(seed):
    g = _hub_graph(seed)
    chain = stochastic._ChainParams(g, gn.Measure.uniform(g.vertices))
    ref = np.zeros(len(g.data))
    for x in range(g.n):
        lo, hi = g.indptr[x], g.indptr[x + 1]
        if hi > lo:
            ref[lo:hi] = np.cumsum(g.data[lo:hi]) / g.deg[x]
            ref[hi - 1] = 1.0
    assert np.array_equal(chain.cum.view(np.uint64), ref.view(np.uint64))


@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_guide_table_jump_equals_linear_scan(seed):
    # u at 0, just below 1, at each cumulative entry and each bucket edge
    # b / B, and just below each: where the bucket and the scan could part
    g = _hub_graph(seed)
    chain = stochastic._ChainParams(g, gn.Measure.uniform(g.vertices))
    for x in np.flatnonzero(np.diff(g.indptr)):
        lo, hi = g.indptr[x], g.indptr[x + 1]
        row = chain.cum[lo:hi]
        nb = 1 << int(hi - lo - 1).bit_length()
        edges = np.concatenate([row, np.arange(nb) / nb])
        us = np.unique(np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges,
                                       np.nextafter(edges, 0.0)]))
        us = us[(us >= 0.0) & (us < 1.0)]
        got = chain.jump(np.full(us.size, x), us)
        scan = [chain.indices[lo + np.argmax(u < row)] for u in us]
        assert got.tolist() == scan


def _linear_scan_walk(chain, i0, T, rng):
    """``_walk`` with each jump scanned from the start of its row."""
    buf, ptr, t, x = rng.random(stochastic._BLOCK), 0, 0.0, i0
    states, holds = [i0], []

    def draw():
        nonlocal buf, ptr
        if ptr >= stochastic._BLOCK:
            buf, ptr = rng.random(stochastic._BLOCK), 0
        ptr += 1
        return buf[ptr - 1]

    while True:
        holds.append(-math.log1p(-draw()) / chain.rates[x])
        t += holds[-1]
        if t >= T:
            return states, holds
        u, j = draw(), chain.indptr[x]
        while u >= chain.cum[j]:
            j += 1
        x = int(chain.indices[j])
        states.append(x)


def test_walkers_on_a_star_with_uneven_weights():
    # 2000 leaves whose weights span 1e-6 .. 1e3: every jump from the hub
    # starts at a guide bucket, and must land where the scan from the row
    # start does, in both walkers
    rng = np.random.default_rng(8)
    leaves = [str(k) for k in range(2000)]
    g = gn.build_graph(["h", *leaves], [("h", y, w) for y, w in
                                         zip(leaves, 10.0 ** rng.uniform(-6, 3, 2000))])
    m = gn.Measure({v: float(x) for v, x in zip(g.vertices, rng.uniform(0.5, 2.0, g.n))})
    chain = stochastic._ChainParams(g, m)
    weights = np.zeros(g.n)
    weights[rng.choice(g.n, 300, replace=False)] = rng.standard_normal(300)
    h, T, seed = g.index("h"), 0.5, 23
    visits = 0
    for index in range(20):
        rng, ref_rng = (stochastic._stream_rng(seed, index) for _ in range(2))
        states, holds = stochastic._walk(chain, h, T, rng)
        assert (states, holds) == _linear_scan_walk(chain, h, T, ref_rng)
        visits += len(states)
    assert visits > 1000  # half of them at the hub
    ref = np.array([_scalar_integral(chain, h, T, seed, i, weights.tolist()) for i in range(300)])
    vals = stochastic._walk_paths(chain, h, T, seed, np.arange(300), weights)
    assert np.array_equal(vals.view(np.uint64), ref.view(np.uint64))


def test_horizon_at_an_exact_jump_time():
    # T equal to a float partial sum t + h at which (t + h) - t != h: the
    # last segment must be charged T - t, as in the scalar walker
    g = gn.build_graph(["a", "b"], [("a", "b", 1.0)])
    m = gn.Measure({"a": 1.0, "b": 3.0})
    chain = stochastic._ChainParams(g, m)
    weights = np.array([1.0, -0.7])
    for index in range(100):
        _, holds = stochastic._walk(chain, 0, 50.0, stochastic._stream_rng(11, index))
        t = 0.0
        for h in holds[:-1]:
            if (t + h) - t != h:
                T = t + h
                vals = stochastic._walk_paths(chain, 0, T, 11, np.array([index]), weights)
                ref = _scalar_integral(chain, 0, T, 11, index, weights.tolist())
                assert vals[0] == ref
                return
            t += h
    pytest.fail("no partial sum with a rounded difference")


def test_degree_zero_start_vertex_in_both_walkers():
    g = gn.build_graph(["a", "b", "c"], [("a", "b", 1.0)])
    m = gn.Measure.uniform(g.vertices)
    chain = stochastic._ChainParams(g, m)
    weights = np.array([1.0, 0.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = stochastic._walk_paths(chain, g.index("c"), 1.5, 3, np.arange(5), weights)
        ref = [_scalar_integral(chain, g.index("c"), 1.5, 3, i, weights.tolist()) for i in range(5)]
        est = gn.mc_estimate_measure(g, ["c", "a"], m, m, {"c": 2.0, "a": 1.0}, "c", 1.5, 5, 3)
        path = gn.sample_path_graph(g, m, "c", 1.5, (3, 0))
    assert vals.tolist() == ref == [3.0] * 5
    assert est.value == 3.0 and est.stderr == 0.0
    assert path.states == ("c",) and path.holding_times.tolist() == [math.inf]


@pytest.mark.parametrize("x0, T, N, seed, value, stderr", [
    ("1", 5.0, 10_000, 1, 0.9682706051073575, 0.021377422614032637),
    ("2", 40.0, 3000, 7919, -0.02281703204582601, 0.1317584435658528),
    ("1", 0.3, 5000, -1, 0.26045145627549066, 0.0012222269106120286),
])
def test_mc_estimate_golden_values(p3_closure, p3_phi, x0, T, N, seed, value, stderr):
    # the exact values of the per-path walker that drew from one
    # np.random.Philox generator per path, on any machine
    est = gn.mc_estimate(p3_closure, p3_phi, x0, T, N, seed)
    assert (est.value, est.stderr) == (value, stderr)


def test_sample_paths_share_one_table_and_match_single_paths(p3_closure):
    g, m = p3_closure.graph, p3_closure.measure
    paths = list(gn.sample_paths(g, m, "2", 6.0, 17, [4, 0, 2**40]))
    for index, path in zip([4, 0, 2**40], paths):
        one = gn.sample_path_graph(g, m, "2", 6.0, (17, index))
        assert path.seed == one.seed == (17, index)
        assert path.states == one.states
        assert np.array_equal(path.holding_times, one.holding_times)


def test_sample_paths_checks_arguments_before_returning(p3_closure):
    g, m = p3_closure.graph, p3_closure.measure
    with pytest.raises(NonpositiveHorizonError):
        gn.sample_paths(g, m, "2", math.inf, 1, range(3))
    with pytest.raises(UnknownVertexError):
        gn.sample_paths(g, m, "9", 1.0, 1, range(3))
