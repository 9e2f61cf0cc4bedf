import math

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


def kink(t, sl, sr):
    """A guide of models with kinks at t that rise with slope sl and fall
    with slope sr."""
    return t, (sl, 0.0, 0.0), (-np.asarray(sr), 0.0, 0.0)


def parabola(t):
    """A guide of parabolas with their vertices at t."""
    return t, (0.0, -1.0, 0.0), (0.0, -1.0, 0.0)


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


@pytest.mark.parametrize(
    "f,a,b",
    [
        (np.sin, 0.0, 2.0 * math.pi),
        (lambda x: x, -1.0, 1.0),
        (lambda x: x**3 - x, -2.0, 2.0),
        (lambda x: np.exp(-x * x) * np.sin(5.0 * x), -3.0, 3.0),
    ],
)
def test_quadrature_of_a_zero_total(f, a, b):
    # a budget relative to the total, near 0, would split panels without
    # end; each panel is tested against its own value instead
    assert abs(adaptive_gauss_kronrod(f, a, b)) < 1e-12


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
    # width so that the problems converge at different levels: a zero-width
    # bracket, and brackets that the first, second and third level narrow
    # below xtol; in lockstep and along paths that a kink at the maxima, a
    # parabola far away and a model with flat sides predict
    centres = np.array([2.0, 0.1, 4.9, -1.0, 7.0, 0.3, 1.0, 1.0, 1.0])
    a = np.array([0.0, 0.0, 1.0, 0.0, 2.0, 0.3, 1.0, 1.0, 0.99999999])
    b = np.array([5.0, 0.5, 5.0, 3.0, 2.1, 0.3, 1.000000001, 1.00000002, 1.00000002])

    def f(k, x):
        return -((x - centres[k]) ** 2)

    every = np.arange(centres.size)
    for guide in (None, kink(centres, 1.0, 1.0), parabola(centres + 50.0), kink(a, 0.0, 0.0)):
        xs, fs = batched_golden_section_max(f, a, b, f(every, a), f(every, b), 1e-8, guide)
        for k, c in enumerate(centres):
            assert (xs[k], fs[k]) == golden_section_max(
                lambda t: -((t - c) ** 2), a[k], b[k], xtol=1e-8
            )


def test_batched_golden_section_of_no_problem():
    none = np.zeros(0)
    for guide in (None, kink(none, 1.0, 1.0)):
        xs, fs = batched_golden_section_max(lambda k, x: x, none, none, none, none, 1e-8, guide)
        assert xs.shape == fs.shape == (0,)


def test_batched_golden_section_levels_per_call():
    # in lockstep each call of f evaluates one level of every problem, after
    # a first call for c and d; a problem of 17 levels (a bracket of 0.27
    # to 1e-4) takes 1 + 17 calls.  Along a path that the parabola's vertex
    # predicts, one call evaluates c, d and all 17 levels' points.  A model
    # that mispredicts every level still gains one level per call: the one
    # whose comparison the last call settled
    calls = []

    def f(k, x):
        calls.append(np.bincount(k, minlength=2).tolist())
        return -((x - 0.1) ** 2)

    a, b = np.array([0.0, 0.0]), np.array([0.27, 0.27])
    fa, fb = f(np.arange(2), a), f(np.arange(2), b)
    for guide, want in ((None, [2] + [1] * 17), (parabola(0.1), [19])):
        calls.clear()
        batched_golden_section_max(f, a, b, fa, fb, 1e-4, guide)
        assert calls == [[n, n] for n in want]
    calls.clear()
    batched_golden_section_max(f, a, b, fa, fb, 1e-4, kink(0.1, -1.0, -1.0))
    assert len(calls) <= 1 + 17


def test_golden_section_stops_at_the_level_cap():
    # xtol = 0 is never met: the search stops after _GOLDEN_MAX_ITER levels,
    # in lockstep and along predicted paths
    def f(k, x):
        return -np.abs(x - 0.3)

    a, b = np.zeros(2), np.ones(2)
    fa, fb = f(None, a), f(None, b)
    want = golden_section_max(lambda t: -abs(t - 0.3), 0.0, 1.0, xtol=0.0)
    for guide in (None, kink(0.3, 1.0, 1.0), parabola(0.9)):
        xs, fs = batched_golden_section_max(f, a, b, fa, fb, 0.0, guide)
        assert list(zip(xs, fs)) == [want, want]


def test_collapsed_bracket_steps_one_level_per_round():
    # xtol = 0 collapses the bracket to a few ulps long before the level
    # cap, where a model's comparisons are noise: the search then steps one
    # level per round instead of predicting, and discarding, a path to the
    # cap in every round, so it evaluates at most twice the lockstep
    # search's points (202), with the same result.  The models are a
    # parabola away from the maximum and a kink at it; a model that
    # mispredicts every level discards at most two paths to the cap
    points = []

    def f(k, x):
        points.append(np.size(x))
        return -np.abs(np.asarray(x) - 0.3)

    a, b = np.zeros(1), np.ones(1)
    fa, fb = f(None, a), f(None, b)
    want = golden_section_max(lambda t: -abs(t - 0.3), 0.0, 1.0, xtol=0.0)
    counts = []
    for guide in (None, parabola(0.9), kink(0.3, 3.0, 0.5), kink(0.9, -1.0, -1.0)):
        points.clear()
        xs, fs = batched_golden_section_max(f, a, b, fa, fb, 0.0, guide)
        assert (xs[0], fs[0]) == want
        counts.append(sum(points))
    assert counts[0] == 202
    assert max(counts[1:3]) <= 2 * counts[0]
    assert counts[3] <= counts[0] + 2 * numerics._GOLDEN_MAX_ITER


def test_guided_search_counts_levels_after_a_miss(monkeypatch):
    # with a cap of 6 levels and xtol = 0 every search stops at the cap with
    # its bracket still wide, so a search that counts its levels wrongly
    # after a missed prediction ends at other points.  The models' kinks lie
    # away from the true ones, with other slopes, so their paths miss
    monkeypatch.setattr(numerics, "_GOLDEN_MAX_ITER", 6)
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        a = rng.uniform(-2.0, 2.0, n)
        b = a + rng.uniform(0.5, 3.0, n)
        centre = a + rng.uniform(0.0, 1.0, n) * (b - a)
        t = centre + rng.choice([-0.4, 0.4], n) * (b - a)
        guide = kink(t, rng.uniform(0.1, 5.0, n), rng.uniform(0.1, 5.0, n))

        def f(k, x):
            u = np.asarray(x) - centre[np.asarray(k, dtype=np.intp)]
            return np.where(u < 0.0, 3.0 * u, -0.5 * u)

        every = np.arange(n)
        fa, fb = f(every, a), f(every, b)
        lockstep = batched_golden_section_max(f, a, b, fa, fb, 0.0)
        guided = batched_golden_section_max(f, a, b, fa, fb, 0.0, guide)
        assert [v.tobytes() for v in guided] == [v.tobytes() for v in lockstep]
        for k in every:
            want = golden_section_max(lambda x: float(f([k], [x])[0]), a[k], b[k], xtol=0.0)
            assert (guided[0][k], guided[1][k]) == want


def test_golden_section_goes_on_at_a_width_of_xtol():
    # the search stops once its bracket is narrower than xtol: its second
    # level here leaves a width of exactly xtol, c - a, and more follow
    def f(k, x):
        return -np.abs(x - 0.7)

    a, b = np.zeros(3), np.ones(3)
    xtol = float((b - numerics._INV_PHI * (b - a))[0])
    want = golden_section_max(lambda t: -abs(t - 0.7), 0.0, 1.0, xtol=xtol)
    assert want != golden_section_max(lambda t: -abs(t - 0.7), 0.0, 1.0, xtol=xtol * (1 + 1e-15))
    for guide in (None, kink(0.7, 1.0, 1.0)):
        xs, fs = batched_golden_section_max(f, a, b, f(None, a), f(None, b), xtol, guide)
        assert list(zip(xs, fs)) == [want] * 3


# a smooth peak, a kink, a plateau (ties f(c) == f(d) on it) and a staircase
# (ties and flat steps), each centred at c with its own scale
SHAPES = ("smooth", "kink", "plateau", "steps")


def shaped(shape, u):
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
# a model (t, left, right): t as a share of b - a and the coefficients of
# its cubic pieces, or a kink at the problem's own centre with its slopes;
# pieces that meet inside, at the ends, outside and far away, and zero,
# negative, huge and undefined coefficients
coefficients = st.sampled_from(
    [0.0, 1.0, 0.5, 3.0, -1.0, -3.0, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
)
models = st.one_of(
    st.just(None),
    st.tuples(
        st.one_of(st.sampled_from([0.0, 1.0, -1e6, 1e6]), st.floats(min_value=-0.5, max_value=1.5)),
        st.tuples(coefficients, coefficients, coefficients),
        st.tuples(coefficients, coefficients, coefficients),
    ),
)


@given(
    batch=st.lists(st.tuples(problems, models), min_size=1, max_size=30),
    xtol=st.sampled_from([1e-8, 1e-4, 1e-2]),
)
@settings(max_examples=150, deadline=None)
def test_speculative_golden_section_equals_lockstep(batch, xtol):
    # the points evaluated along predicted paths, whatever the model, give
    # each problem the points and values of the lockstep search and of the
    # one-problem search, bit for bit: over ragged brackets that converge at
    # different levels (zero-width ones and ones narrower than xtol at the
    # first level), kinks, ties and maxima at (or beyond) the bracket ends
    a = np.array([p[0] for p, _ in batch])
    b = a + np.array([p[1] for p, _ in batch])
    scale = np.maximum(b - a, 1e-12)
    centre = a + np.array([p[2] for p, _ in batch]) * scale
    shape = np.array([SHAPES.index(p[3]) for p, _ in batch])
    share, left, right = zip(*(m or (None, (3.0, 0.0, 0.0), (-0.5, 0.0, 0.0)) for _, m in batch))
    t = np.where([v is None for v in share], centre, a + np.array(share, dtype=float) * scale)
    guide = (t, np.array(left).T, np.array(right).T)

    def f(k, x):
        k = np.asarray(k)
        u = (np.asarray(x) - centre[k]) / scale[k]
        return np.choose(shape[k], [shaped(name, u) for name in SHAPES])

    every = np.arange(len(batch))
    fa, fb = f(every, a), f(every, b)
    lockstep = batched_golden_section_max(f, a, b, fa, fb, xtol)
    guided = batched_golden_section_max(f, a, b, fa, fb, xtol, guide)
    assert [v.tobytes() for v in guided] == [v.tobytes() for v in lockstep]
    for k in every:
        want = golden_section_max(lambda x: float(f([k], [x])[0]), a[k], b[k], xtol=xtol)
        assert (guided[0][k], guided[1][k]) == want
