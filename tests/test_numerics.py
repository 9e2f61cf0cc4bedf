import math

import numpy as np
import pytest
from scipy.integrate import quad

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
    # width so that the problems converge in different rounds
    centres = np.array([2.0, 0.1, 4.9, -1.0, 7.0, 0.3])
    a = np.array([0.0, 0.0, 1.0, 0.0, 2.0, 0.3])
    b = np.array([5.0, 0.5, 5.0, 3.0, 2.1, 0.3])

    def f(k, x):
        return -((x - centres[k]) ** 2)

    every = np.arange(centres.size)
    xs, fs = batched_golden_section_max(f, a, b, f(every, a), f(every, b), xtol=1e-8)
    for k, c in enumerate(centres):
        assert (xs[k], fs[k]) == golden_section_max(
            lambda t: -((t - c) ** 2), a[k], b[k], xtol=1e-8
        )
