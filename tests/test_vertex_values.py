"""``Measure`` and ``VertexFunction``, one array-based type, against the
dict-based classes they replaced (``vertex_values_reference``): the same
values in the same order bit for bit, the same totals, the same errors
with the same context, and the same equality and hashes.

A measure's entries are checked after repeated names collapse, so the
mappings given to ``Measure`` here have string keys: an int key and its
string (1 and "1") are one vertex, which the reference checked before
collapsing them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gneumann as gn
import vertex_values_reference as ref
from gneumann.errors import GneumannError

NAMES = st.sampled_from(["a", "b", "c", "d", "e", "x,y", "1", "10", "é"])
KEYS = NAMES | st.integers(min_value=0, max_value=12)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
BAD = st.sampled_from([0.0, -0.0, -1.0, -5e-324, -1e308, math.nan, math.inf, -math.inf])
MAPPINGS = st.dictionaries(NAMES, POSITIVE)
TYPES = ((gn.Measure, ref.Measure), (gn.VertexFunction, ref.VertexFunction))

cases = settings(max_examples=150, deadline=None)


def bits(values) -> bytes:
    return np.array(list(values), dtype=float).tobytes()


def outcome(f, *args):
    """The call's result, or its error's class, message and context."""
    try:
        return f(*args)
    except (GneumannError, KeyError) as e:
        return type(e), str(e), repr(sorted(getattr(e, "context", {}).items()))


def agree(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, float):
        assert isinstance(got, float) and got.hex() == want.hex()
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
    else:
        assert list(got.values) == list(want.values)
        assert bits(got.values.values()) == bits(want.values.values())
        assert got.domain == want.domain
        assert repr(got) == repr(want)
        if isinstance(want, ref.Measure):
            assert got.total.hex() == want.total.hex()
            assert hash(got) == hash(want)


@cases
@given(st.dictionaries(NAMES, POSITIVE | BAD))
def test_measure_from_a_mapping_checks_and_sums_like_the_reference(mapping):
    agree(outcome(gn.Measure, mapping), outcome(ref.Measure, mapping))


@cases
@given(st.lists(st.tuples(NAMES, POSITIVE | BAD)))
def test_measure_from_vector_is_the_measure_of_the_zipped_dict(pairs):
    names, values = [x for x, _ in pairs], [v for _, v in pairs]
    agree(outcome(gn.Measure.from_vector, names, values),
          outcome(ref.Measure, dict(zip(names, values))))


@cases
@given(st.lists(st.tuples(KEYS, st.floats())))
def test_vertex_function_from_a_mapping_or_a_vector_like_the_reference(pairs):
    mapping = dict(pairs)  # 1 and "1" are two keys here and one vertex after str()
    agree(gn.VertexFunction(mapping), ref.VertexFunction(mapping))
    names, values = [x for x, _ in pairs], [v for _, v in pairs]
    agree(gn.VertexFunction.from_vector(names, values),
          ref.VertexFunction.from_vector(names, values))


@cases
@given(st.lists(NAMES), st.lists(POSITIVE))
def test_from_vector_checks_the_length_like_the_reference(names, values):
    agree(outcome(gn.VertexFunction.from_vector, names, values),
          outcome(ref.VertexFunction.from_vector, names, values))


@cases
@given(MAPPINGS, st.data())
def test_to_vector_is_a_new_writable_array_in_any_order(mapping, data):
    order = data.draw(st.permutations(list(mapping)))
    for new_type, old_type in TYPES:
        new, old = new_type(mapping), old_type(mapping)
        for o in (new.vertices, tuple(order), list(order)):
            v = new.to_vector(o)
            agree(v, old.to_vector(o))
            assert v.flags.writeable and not np.shares_memory(v, new.array)
            v += 1.0
            agree(new, old)


@cases
@given(MAPPINGS, st.lists(NAMES))
def test_to_vector_refuses_missing_or_extra_vertices_like_the_reference(mapping, order):
    for new_type, old_type in TYPES:
        agree(outcome(new_type(mapping).to_vector, order),
              outcome(old_type(mapping).to_vector, order))


@cases
@given(st.dictionaries(NAMES, st.sampled_from([0.5, 1.0, 2.0])),
       st.dictionaries(NAMES, st.sampled_from([0.5, 1.0, 2.0])), st.data())
def test_equality_ignores_order_and_measures_hash_like_the_reference(a, b, data):
    a2 = {x: a[x] for x in data.draw(st.permutations(list(a)))}
    for new_type, old_type in TYPES:
        for x, y in ((a, b), (a, a2), (b, a2)):
            assert (new_type(x) == new_type(y)) == (old_type(x) == old_type(y))
            assert (new_type(x) != new_type(y)) == (old_type(x) != old_type(y))
    assert hash(gn.Measure(a2)) == hash(gn.Measure(a)) == hash(ref.Measure(a))
    assert gn.Measure(a) != gn.VertexFunction(a)
    with pytest.raises(TypeError):
        hash(gn.VertexFunction(a))


@cases
@given(MAPPINGS, KEYS)
def test_lookup_by_name_raises_like_the_reference(mapping, x):
    for new_type, old_type in TYPES:
        agree(outcome(new_type(mapping).__getitem__, x), outcome(old_type(mapping).__getitem__, x))
    assert (x in gn.Measure(mapping)) == (x in ref.Measure(mapping))


@cases
@given(MAPPINGS, st.lists(KEYS))
def test_restrict_like_the_reference(mapping, vertices):
    agree(outcome(gn.Measure(mapping).restrict, vertices),
          outcome(ref.Measure(mapping).restrict, vertices))
