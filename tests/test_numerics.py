import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from thzsec import numerics
from thzsec.numerics import (
    QuadratureError,
    adaptive_gauss_kronrod,
    batched_golden_section_max,
    golden_section_max,
)


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: x**5 - 3 * x**2 + 1, -1.0, 2.5),
        (lambda x: np.exp(x), 0.0, 3.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
        (lambda x: np.exp(-200.0 * (x - 0.3) ** 2), 0.0, 1.0),
        (lambda x: np.sin(40.0 * x), 0.0, 2.0),
    ],
)
def test_quadrature_matches_scipy(f, a, b):
    mine = adaptive_gauss_kronrod(f, a, b, rel_tol=1e-10)
    ref, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert math.isclose(mine, ref, rel_tol=5e-10, abs_tol=1e-12)


def test_quadrature_empty_and_tiny_interval():
    assert adaptive_gauss_kronrod(lambda x: np.exp(x), 1.0, 1.0) == 0.0
    v = adaptive_gauss_kronrod(lambda x: np.ones_like(x), 0.0, 1e-12)
    assert math.isclose(v, 1e-12, rel_tol=1e-12)


def test_quadrature_integrand_gets_1d_points():
    # a pointwise Python loop only works on a 1-D array of points
    v = adaptive_gauss_kronrod(lambda x: np.array([math.exp(t) for t in x]), 0.0, 1.0)
    assert math.isclose(v, math.e - 1.0, rel_tol=1e-12)


def test_quadrature_panel_budget_raises():
    # integrable singularity needs unbounded refinement at this tolerance
    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(
            lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300),
            0.0,
            1.0,
            rel_tol=1e-14,
            max_panels=8,
        )


def test_golden_section_simple_quadratic():
    x, fx = golden_section_max(lambda t: -(t - 2.0) ** 2, 0.0, 5.0, xtol=1e-8)
    assert abs(x - 2.0) < 1e-6
    assert fx <= 0.0


def test_golden_section_returns_best_endpoint():
    # monotone increasing: the maximum sits on the right endpoint
    x, fx = golden_section_max(lambda t: t, 0.0, 1.0, xtol=1e-8)
    assert fx >= 1.0 - 1e-6


def test_batched_golden_section_equals_scalar_per_problem():
    # maxima inside, at either end and outside the brackets, which differ in
    # width so that the problems converge in different rounds; at every
    # look-ahead depth, so rounds of several levels are replayed
    centres = np.array([2.0, 0.1, 4.9, -1.0, 7.0, 0.3])
    a = np.array([0.0, 0.0, 1.0, 0.0, 2.0, 0.3])
    b = np.array([5.0, 0.5, 5.0, 3.0, 2.1, 0.3])

    def f(k, x):
        return -((x - centres[k]) ** 2)

    every = np.arange(centres.size)
    for depth in (1, 2, 3, 4):
        with mock.patch.object(numerics, "_golden_depth", lambda live: depth):
            xs, fs = batched_golden_section_max(f, a, b, f(every, a), f(every, b), xtol=1e-8)
        for k, c in enumerate(centres):
            assert (xs[k], fs[k]) == golden_section_max(
                lambda t: -((t - c) ** 2), a[k], b[k], xtol=1e-8
            )


# a smooth peak, a kink, a plateau (ties f(c) == f(d) on it) and a staircase
# (ties and flat steps), each centred at c with its own scale
SHAPES = ("smooth", "kink", "plateau", "steps")


def shaped(shape, x, c, scale):
    u = (x - c) / scale
    return {
        "smooth": -(u**2),
        "kink": np.where(u < 0.0, 3.0 * u, -0.5 * u),
        "plateau": -np.maximum(np.abs(u) - 0.25, 0.0),
        "steps": -np.floor(np.abs(4.0 * u)),
    }[shape]


problems = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),  # a
    st.sampled_from([0.0, 1e-9, 1e-5, 1e-3, 0.27, 3.0]),  # b - a
    st.floats(min_value=-0.5, max_value=1.5),  # centre, as a share of b - a
    st.sampled_from(SHAPES),
)


@given(
    batch=st.lists(problems, min_size=1, max_size=30),
    depth=st.integers(min_value=1, max_value=5),
    xtol=st.sampled_from([1e-8, 1e-4, 1e-2]),
)
@settings(max_examples=150, deadline=None)
def test_speculative_golden_section_equals_lockstep(batch, depth, xtol):
    # rounds of D levels visit the points, and get the values, of D = 1 and
    # of the one-problem search, bit for bit per problem: over ragged
    # brackets that converge at different levels, kinks, ties and maxima
    # at (or beyond) the bracket ends
    a = np.array([p[0] for p in batch])
    b = a + np.array([p[1] for p in batch])
    centre = a + np.array([p[2] for p in batch]) * np.maximum(b - a, 1e-12)
    scale = np.maximum(b - a, 1e-12)
    shape = [p[3] for p in batch]

    def f(k, x):
        out = np.empty(np.shape(x))
        for i, (kk, xx) in enumerate(zip(np.atleast_1d(k), np.atleast_1d(x))):
            out[i] = shaped(shape[kk], xx, centre[kk], scale[kk])
        return out

    every = np.arange(len(batch))
    results = []
    for d in (1, depth):
        with mock.patch.object(numerics, "_golden_depth", lambda live: d):
            xs, fs = batched_golden_section_max(f, a, b, f(every, a), f(every, b), xtol=xtol)
        results.append((xs.tobytes(), fs.tobytes()))
        for k in every:
            want = golden_section_max(lambda t: float(f([k], [t])[0]), a[k], b[k], xtol=xtol)
            assert (xs[k], fs[k]) == want
    assert results[0] == results[1]


def test_golden_depth_falls_with_the_batch():
    depths = [numerics._golden_depth(n) for n in (1, 8, 22, 48, 64, 128, 512)]
    assert depths == sorted(depths, reverse=True)
    assert depths[0] > 1 and depths[-1] == 1
