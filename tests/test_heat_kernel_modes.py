"""``heat_kernel`` sums only the modes whose decay is a normal double: the
result equals the sum over every mode bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gneumann as gn
from instances import random_connected_graph, random_measure

# times in units of 1 / spectral gap, from 1e-3 to 1e4
SCALES = np.logspace(-3, 4, 29)


def full_contraction(spec, t):
    """The heat kernel summed over every mode, subnormal decays included."""
    decay = np.exp(-spec.eigenvalues * t)
    P = (spec.basis * decay[None, :]) @ spec.basis.T
    return 0.5 * (P + P.T)


def _spectrum(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    return gn.eigendecompose(g, random_measure(rng, g.vertices))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=90),
       st.floats(min_value=-3.0, max_value=4.0))
def test_heat_kernel_equals_full_contraction(seed, n, log_scale):
    spec = _spectrum(seed, n)
    gap = spec.spectral_gap
    for scale in [*SCALES, 10.0**log_scale]:
        t = scale / gap
        assert np.array_equal(gn.heat_kernel(spec, t).entries, full_contraction(spec, t)), t


def test_heat_kernel_past_every_nonzero_decay_is_the_constant_mode():
    spec = _spectrum(7, 40)
    t = 800.0 / spec.spectral_gap  # exp(-800) is 0.0: every nonzero mode is gone
    assert np.exp(-spec.eigenvalues[1] * t) == 0.0
    psi0 = spec.basis[:, 0]
    P = gn.heat_kernel(spec, t).entries
    assert np.array_equal(P, np.outer(psi0, psi0))
    assert np.array_equal(P, full_contraction(spec, t))
    assert np.allclose(P, 1.0 / spec.measure_vector.sum(), rtol=1e-12, atol=0)
