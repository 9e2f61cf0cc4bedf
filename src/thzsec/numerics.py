"""Self-contained 1-D numerics: adaptive Gauss-Kronrod quadrature and
golden-section maximisation, each for one problem and for a batch of
independent problems solved together.

The quadrature drives the single-scatter gain integral; the golden-section
search drives the steering optimisation.  Both work on plain callables; the
quadrature expects a vectorised integrand (ndarray in, ndarray out) so that
whole refinement rounds cost a single numpy call.

The quadrature has one refinement, ``gauss_kronrod_panels``: every problem
of a batch refines side by side, each panel is tested against its own
value, each split panel's halves take its place, and the final panels
themselves are returned, in the order of the first ones, for callers that
integrate many sub-intervals of one problem from them or sum them per
problem.  ``adaptive_gauss_kronrod`` is its one-problem call from the one
panel [a, b].  ``batched_golden_section_max`` runs ``golden_section_max``
for every problem of a batch side by side, with the same points and
values.  A problem's arithmetic never mixes with another's, so its result
does not depend on which other problems share the batch.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "QuadratureError",
    "adaptive_gauss_kronrod",
    "gauss_kronrod_panels",
    "GAUSS_NODES",
    "GAUSS_WEIGHTS",
    "golden_section_max",
    "batched_golden_section_max",
]


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of panels before meeting the tolerance."""


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Abscissa magnitudes; even indices are the Kronrod-only nodes, odd the
# embedded Gauss nodes.
_XK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# Full symmetric node/weight arrays (15 Kronrod nodes; Gauss weights are
# zero at Kronrod-only nodes).
_NODES = np.concatenate([-_XK[:7], _XK[::-1]])
_WEIGHTS_K = np.concatenate([_WK[:7], _WK[::-1]])
_wg_full = np.zeros(8)
_wg_full[1::2] = _WG  # Gauss nodes sit at the odd Kronrod indices plus the centre
_WEIGHTS_G = np.concatenate([_wg_full[:7], _wg_full[::-1]])
GAUSS_NODES = _NODES[1::2]
GAUSS_WEIGHTS = _WEIGHTS_G[1::2]


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-30,
    max_panels: int = 2048,
) -> float:
    """Integrate a vectorised integrand over [a, b] by adaptive bisection;
    0 where b <= a.

    ``f`` maps a 1-D array of points to their values.  The refinement is
    ``gauss_kronrod_panels``'s from the one panel [a, b], and the result
    the sum of its final panels' K15 values.  A panel's error estimate is
    |K15 - G7|, an estimate and not a bound, so the result can miss
    ``rel_tol``.
    """
    if not b > a:
        return 0.0
    _, _, _, ik, _ = gauss_kronrod_panels(
        lambda item, x: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)[:, None],
        [0], [a], [b], rel_tol, abs_tol, max_panels,
    )
    return float(ik.sum())


def _panel_estimates(f, item: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Kronrod/Gauss estimates for a batch of panels in one integrand call.

    ``f`` returns c integrands at once, shape (n_panels, c, 15); so are the
    estimates shaped (n_panels, c).  Row sums, not a matrix product, whose
    rows may round differently with the number of panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # shape (n_panels, 15)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(item, pts), dtype=float)
    ik = half[:, None] * (vals * _WEIGHTS_K).sum(axis=-1)
    ig = half[:, None] * (vals * _WEIGHTS_G).sum(axis=-1)
    return ik, np.abs(ik - ig)


def gauss_kronrod_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    item: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    max_panels: int,
):
    """Final panels of an adaptive refinement that starts from the panels
    [lo[i], hi[i]] of problem item[i], lo[i] < hi[i].

    ``f(item, x)`` evaluates problem ``item[i]`` at the points ``x[i, :]``
    for c integrands at once, shape (len(item), c, 15).  Each round
    re-evaluates every split panel's halves with the (G7, K15) pair, and
    each panel meets the tolerance on its own: a panel is split while the
    sum of its c values of |K15 - G7| exceeds max(rel_tol * m, abs_tol), m
    being its largest |K15|.  So a problem's final panels depend on its own
    first panels only, and a total near 0 needs no finer panels than its
    parts do.  A split panel's halves take its place, so the final panels
    keep the order of the first ones: ordered by problem and then by
    position when those are, and the first panels themselves when none is
    split.  Returns (item, lo, hi, ik, err): panel i spans [lo[i], hi[i]]
    of problem item[i], with its K15 integrals ik[i] and |K15 - G7| err[i],
    shape (c,) each.  ``QuadratureError`` when a problem would exceed
    ``max_panels`` panels or 64 rounds.
    """
    item = np.asarray(item)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ik, err = _panel_estimates(f, item, lo, hi)
    for _ in range(64):
        bad = err.sum(axis=1) > np.maximum(rel_tol * np.abs(ik).max(axis=1), abs_tol)
        split = bad.any()
        if split or item.size > max_panels:
            # each problem's panels after this round's splits
            panels = np.bincount(item, weights=1 + bad, minlength=1)
            if panels.max() > max_panels:
                k = int(np.argmax(panels))
                raise QuadratureError(f"exceeded {max_panels} panels (problem {k})")
        if not split:
            return item, lo, hi, ik, err
        # every panel once, a split one twice: its left half, then its right
        src = np.repeat(np.arange(item.size), 1 + bad)
        halves = np.flatnonzero(bad[src])
        left, right = halves[::2], halves[1::2]
        mid = 0.5 * (lo[bad] + hi[bad])
        item, lo, hi, ik, err = item[src], lo[src], hi[src], ik[src], err[src]
        hi[left] = mid
        lo[right] = mid
        ik[halves], err[halves] = _panel_estimates(f, item[halves], lo[halves], hi[halves])
    raise QuadratureError("refinement did not converge in 64 rounds")


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 200


def golden_section_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 1e-6,
) -> tuple[float, float]:
    """Locate the maximum of a unimodal f on [a, b].

    Returns (x, f(x)) for the best point seen, endpoints included.
    """
    if b < a:
        a, b = b, a
    best_x, best_f = a, f(a)
    fb_end = f(b)
    if fb_end > best_f:
        best_x, best_f = b, fb_end
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        if abs(b - a) < xtol:
            break
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def batched_golden_section_max(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    xtol: float = 1e-6,
    guide=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``golden_section_max`` on [a[k], b[k]], a[k] <= b[k], for every k;
    fa and fb are the values at a and b.

    ``f(k, x)`` evaluates problems ``k`` at points ``x``, and a problem's
    value must not depend on the others evaluated with it.  Without a
    ``guide`` the problems step in lockstep, one level per call of f after
    a first call for c and d.  With one, (t, left, right) of a model per
    problem, a call evaluates each problem's whole predicted path
    (``_guided``).  Either way each problem visits exactly the points, and
    gets exactly the values, of ``golden_section_max``.  Returns (x, f(x))
    arrays.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa, fb = np.asarray(fa, dtype=float), np.asarray(fb, dtype=float)
    if guide is not None:
        return _guided(f, a, b, fa, fb, xtol, guide)
    best_x = np.where(fb > fa, b, a)
    best_f = np.where(fb > fa, fb, fa)
    if a.size:
        last = _lockstep(f, a, b, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a), xtol)
        for x, fx in zip(last[:2], last[2:]):
            better = fx > best_f
            best_x = np.where(better, x, best_x)
            best_f = np.where(better, fx, best_f)
    return best_x, best_f


def _lockstep(f, a, b, c, d, xtol):
    """(c, d, f(c), f(d)) of every problem's last bracket, shape (4, n),
    one level of every live problem per call of f."""
    last = np.empty((4, a.size))
    live = np.arange(a.size)
    fc, fd = np.split(np.asarray(f(np.tile(live, 2), np.concatenate([c, d])), dtype=float), 2)
    for level in range(1, _GOLDEN_MAX_ITER + 1):
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = b - a
        x = np.where(left, b - _INV_PHI * width, a + _INV_PHI * width)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fx = np.asarray(f(live, x), dtype=float)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        stop = (np.abs(width) < xtol) | (level == _GOLDEN_MAX_ITER)
        if stop.any():
            last[:, live[stop]] = c[stop], d[stop], fc[stop], fd[stop]
            live, a, b, c, d, fc, fd = (v[~stop] for v in (live, a, b, c, d, fc, fd))
            if not live.size:
                return last


def _guided(f, a, b, fa, fb, xtol, guide):
    """``batched_golden_section_max`` with each problem along the path its
    model predicts.

    Model k is continuous at t[k]: u (p1 + u (p2 + u p3)), u = x - t[k],
    with the coefficients (p1, p2, p3) from ``left`` where u <= 0 and from
    ``right`` past t[k], each an array of the problems' or one for all.
    It predicts f(c) > f(d), the left branch, where its value at c exceeds
    that at d.  A round evaluates the rest of each live problem's predicted
    path (``_path``), c and d too in the first, in one call of f and walks
    its true comparisons; a problem goes on from the first that disagrees
    in the next round, its model then the cubic through the four best
    points it has evaluated (``_cubic``).  After a second miss, or without
    four such points, it takes one level per round, as it does once a
    level leaves its bracket no narrower: a bracket of a few ulps, where
    the model's comparisons are noise, would otherwise predict and discard
    a path to the level cap in every round.  A Python loop per problem
    makes and walks the paths, at about 0.3 us a level: numpy arrays of a
    few dozen problems cost more per level.  On perfbench's 22 det_map
    cells that is 2 rounds, paths of 390 points and then 10 for the one
    cell whose interior maximum the probes' cubic misplaced, and about
    0.2 ms between the calls of f (2-core x86-64 VM, Python 3.11)."""
    n = a.size
    models = np.empty((7, n))
    t, left, right = guide
    for row, coefficient in zip(models, (t, *left, *right)):
        row[...] = coefficient
    # golden_section_max's best end, then per problem: its bracket (a, b, c,
    # d), f(c) and f(d) (None until evaluated), its level, its model (None
    # for one level per round), its misses, and the rounds' values and
    # points, each as (values, points, start, stop), that it has evaluated
    ends = list(zip(a.tolist(), b.tolist(), fa.tolist(), fb.tolist()))
    best = [(b, fb) if fb > fa else (a, fa) for a, b, fa, fb in ends]
    live = [
        [k, a, b, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a), None, None, 0, model, 0,
         [([fa, fb], [a, b], 0, 2)]]
        for k, ((a, b, fa, fb), model) in enumerate(zip(ends, models.T.tolist()))
    ]
    while live:
        points, paths, sizes = [], [], []
        for problem in live:
            start = len(points)
            paths.append(_path(points, *problem[1:9], xtol))
            sizes.append(len(points) - start)
        items = np.array([problem[0] for problem in live]).repeat(sizes)
        values = np.asarray(f(items, np.array(points)), dtype=float).tolist()
        going, j = [], 0
        for problem, (lefts, end, done), size in zip(live, paths, sizes):
            k, a, b, c, d, fc, fd, level, model, misses, seen = problem
            seen.append((values, points, j, j + size))
            # the values of the path's levels from values[o]
            o, j = j + size - len(lefts), j + size
            if fc is None:
                fc, fd = values[o - 2:o]
            for i, left in enumerate(lefts):
                if (fc > fd) != left:
                    # a missed prediction: go on from the level before it
                    a, b, c, d = _step(a, b, c, d, lefts[:i])
                    misses += 1
                    model = _cubic(seen) if misses < 2 else None
                    break
                if left:
                    fc, fd = values[o + i], fc
                else:
                    fc, fd = fd, values[o + i]
            else:
                i = len(lefts)
                a, b, c, d = end
                if done:
                    x, fx = best[k]
                    if fc > fx:
                        x, fx = c, fc
                    if fd > fx:
                        x, fx = d, fd
                    best[k] = x, fx
                    continue
            problem[1:10] = a, b, c, d, fc, fd, level + i, model, misses
            going.append(problem)
        live = going
    xs, fs = zip(*best) if best else ((), ())
    return np.array(xs, dtype=float), np.array(fs, dtype=float)


# the model of one level per round
_FLAT = (0.0,) * 7


def _path(points, a, b, c, d, fc, fd, level, model, xtol, inv_phi=_INV_PHI):
    """The branches (True to the left) of a search's levels from its
    bracket (a, b, c, d) at ``level``, the bracket after them and whether
    the search ends there, with the levels' new points appended to
    ``points``: the first level by f(c) > f(d) where those are known (not
    None), the others as its model (t, p1, p2, p3, q1, q2, q3) predicts,
    to the end of the search or up to a level that leaves the bracket no
    narrower; one level alone where the model is None.  The new points
    begin with c and d where f(c) and f(d) are not known."""
    stop = _GOLDEN_MAX_ITER if model is not None else level + 1
    t, p1, p2, p3, q1, q2, q3 = model or _FLAT
    u, v = c - t, d - t
    mc = u * (p1 + u * (p2 + u * p3)) if u <= 0.0 else u * (q1 + u * (q2 + u * q3))
    md = v * (p1 + v * (p2 + v * p3)) if v <= 0.0 else v * (q1 + v * (q2 + v * q3))
    if fc is None:
        points += c, d
        left = mc > md
    else:
        left = fc > fd
    lefts = []
    width = b - a
    for level in range(level + 1, stop + 1):
        lefts.append(left)
        if left:
            b, d, md = d, c, mc
            w = b - a
            c = x = b - inv_phi * w
            points.append(x)
            if not xtol <= w < width:
                break
            u = x - t
            mc = u * (p1 + u * (p2 + u * p3)) if u <= 0.0 else u * (q1 + u * (q2 + u * q3))
        else:
            a, c, mc = c, d, md
            w = b - a
            d = x = a + inv_phi * w
            points.append(x)
            if not xtol <= w < width:
                break
            u = x - t
            md = u * (p1 + u * (p2 + u * p3)) if u <= 0.0 else u * (q1 + u * (q2 + u * q3))
        width = w
        left = mc > md
    return lefts, (a, b, c, d), w < xtol or level == _GOLDEN_MAX_ITER


def _step(a, b, c, d, lefts):
    """The bracket (a, b, c, d) after the levels of branches ``lefts``."""
    for left in lefts:
        if left:
            b, d = d, c
            c = b - _INV_PHI * (b - a)
        else:
            a, c = c, d
            d = a + _INV_PHI * (b - a)
    return a, b, c, d


def _cubic(seen):
    """The model of ``_guided`` through the four highest values that
    ``seen`` holds, (values, points, start, stop) each, at distinct points:
    the cubic's coefficients about the highest, the same on both sides of
    it; None where fewer than four points are distinct."""
    nodes, taken = [], set()
    pairs = [pair for ys, xs, i, j in seen for pair in zip(ys[i:j], xs[i:j])]
    for y, x in sorted(pairs, reverse=True):
        if x not in taken:
            taken.add(x)
            nodes.append((y, x))
            if len(nodes) == 4:
                break
    else:
        return None
    (y0, x0), (y1, x1), (y2, x2), (y3, x3) = nodes
    # Newton's divided differences, then the cubic in u = x - x0
    d01, d12, d23 = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1), (y3 - y2) / (x3 - x2)
    d012, d123 = (d12 - d01) / (x2 - x0), (d23 - d12) / (x3 - x1)
    d3 = (d123 - d012) / (x3 - x0)
    e1, e2 = x0 - x1, x0 - x2
    p1, p2 = d01 + e1 * (d012 + e2 * d3), d012 + (e1 + e2) * d3
    return x0, p1, p2, d3, p1, p2, d3
