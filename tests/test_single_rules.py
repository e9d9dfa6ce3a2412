"""Rules kept in one place: the package's public names are its modules'
``__all__``, the energy is the bilinear form on the diagonal, and
``from_vector`` collapses repeated names as the dict-based reference
class does."""

import inspect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gneumann as gn
import vertex_values_reference as ref
from gneumann import errors, forms, graphs, solver, spectral, stochastic

MODULES = (errors, forms, graphs, solver, spectral, stochastic)


def test_package_exports_exactly_its_modules_all():
    public = {name for name, obj in vars(gn).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set().union(*(m.__all__ for m in MODULES))
    for m in MODULES:
        assert len(set(m.__all__)) == len(m.__all__)
        assert all(getattr(gn, name) is getattr(m, name) for name in m.__all__)
    assert {"check_spectrum_matches", "GneumannError", "IllConditionedError"} <= public
    assert not {"read_graph", "run_all_suites", "main", "path_graph"} & public


@st.composite
def weighted_functions(draw):
    """A random spanning tree plus extra edges on up to 9 vertices, weights
    10^-6 to 10^6, and a function on its vertices."""
    n = draw(st.integers(min_value=2, max_value=9))
    names = [str(i) for i in range(n)]
    weight = st.floats(min_value=-6, max_value=6).map(lambda e: 10.0 ** e)
    edges = {(draw(st.integers(min_value=0, max_value=i - 1)), i): draw(weight) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for p in draw(st.lists(st.sampled_from(pairs), max_size=n)):
        edges.setdefault(p, draw(weight))
    g = gn.build_graph(names, [(names[i], names[j], w) for (i, j), w in edges.items()])
    values = draw(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=n, max_size=n))
    return g, gn.VertexFunction(dict(zip(names, values)))


@settings(max_examples=200, deadline=None)
@given(weighted_functions())
def test_energy_is_the_bilinear_form_on_the_diagonal_exactly(case):
    g, u = case
    uv = u.to_vector(g.vertices)
    d = uv[g.rows] - uv[g.indices]
    squares = 0.5 * float(np.sum(g.data * (d * d)))  # half the weighted squared differences
    assert gn.energy(g, u) == gn.energy_bilinear(g, u, u) == squares


def test_from_vector_collapses_raw_repeats_before_str_ones():
    """[1, "1", 1]: the dict of the zipped pairs keeps 1 (value 3.0)
    before "1" (value 2.0), so "1" gets 2.0, as the reference class
    does; collapsing the str names alone would keep the last value."""
    names, values = [1, "1", 1], [1.0, 2.0, 3.0]
    for cls in (gn.VertexFunction, gn.Measure):
        assert cls.from_vector(names, values).values == {"1": 2.0}
    assert ref.VertexFunction.from_vector(names, values).values == {"1": 2.0}
