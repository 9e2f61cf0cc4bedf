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
    a first call for c and d.  With one, arrays (t, sl, sr, kept) of a
    model per problem, a call evaluates each problem's whole predicted
    path (``_guided``).  Either way each problem visits exactly the
    points, and gets exactly the values, of ``golden_section_max``.
    Returns (x, f(x)) arrays.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa, fb = np.asarray(fa, dtype=float), np.asarray(fb, dtype=float)
    best_x = np.where(fb > fa, b, a)
    best_f = np.where(fb > fa, fb, fa)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    if a.size:
        last = _lockstep(f, a, b, c, d, xtol) if guide is None else _guided(
            f, a, b, c, d, fa, fb, xtol, guide
        )
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


def _guided(f, a, b, c, d, fa, fb, xtol, guide):
    """(c, d, f(c), f(d)) of every problem's last bracket, shape (4, n),
    each problem along the path its model predicts.

    Model k predicts f(c) > f(d), the left branch, where sl[k] c + sr[k] d
    > (sl[k] + sr[k]) t[k]: a kink at t[k] that rises with slope sl[k] and
    falls with slope sr[k], or with sl = sr a parabola's vertex.  A round
    evaluates the rest of each live problem's predicted path (``_path``),
    c and d too in the first, in one call of f and walks its true
    comparisons; a problem goes on from the first that disagrees in the
    next round.  After one such round where kept[k], or at once, its model
    becomes the parabola through its next bracket's ends and known inner
    point (``_vertex``): keeping a kink model for one miss takes perfbench's
    x = 750 m line in 3 rounds instead of 9 (CHANGES.md).  A Python loop
    per problem makes and walks the paths: numpy arrays of a few dozen
    problems cost more per level."""
    n = a.size
    # per problem: its bracket (a, b, c, d) and the values there, f(c) and
    # f(d) None until evaluated; its level; its model (t, sl, sr) and the
    # missed predictions that model survives
    state = list(zip(
        a.tolist(), b.tolist(), c.tolist(), d.tolist(), fa.tolist(), fb.tolist(), [None] * n,
        [None] * n, [0] * n, *(np.broadcast_to(v, n).tolist() for v in guide),
    ))
    last = [None] * n
    live = range(n)
    while live:
        items, points, paths = [], [], []
        for k in live:
            a, b, c, d, fa, fb, fc, fd, level, t, sl, sr, spare = state[k]
            if fc is None:
                points += c, d
            path = _path(a, b, c, d, fc, fd, level, t, sl, sr, xtol)
            points += path[0]
            paths.append(path)
            items += [k] * (len(points) - len(items))
        values = np.asarray(f(np.array(items), np.array(points)), dtype=float).tolist()
        going, j = [], 0
        for k, (xs, lefts) in zip(live, paths):
            a, b, c, d, fa, fb, fc, fd, level, t, sl, sr, spare = state[k]
            if fc is None:
                fc, fd = values[j:j + 2]
                j += 2
            got = values[j:j + len(xs)]
            j += len(xs)
            for i, (x, left, fx) in enumerate(zip(xs, lefts, got)):
                if (fc > fd) != left:
                    break
                if left:
                    b, fb, d, fd, c, fc = d, fd, c, fc, x, fx
                else:
                    a, fa, c, fc, d, fd = c, fc, d, fd, x, fx
            else:
                last[k] = c, d, fc, fd
                continue
            if spare < 1:
                t = _vertex(a, fa, c, fc, d, fd) if fc > fd else _vertex(c, fc, d, fd, b, fb)
                sl = sr = 1.0
            state[k] = a, b, c, d, fa, fb, fc, fd, level + i, t, sl, sr, spare - 1
            going.append(k)
        live = going
    return np.array(last).T


def _path(a, b, c, d, fc, fd, level, t, sl, sr, xtol):
    """The new points and the branches (True to the left) of a search's
    levels from its bracket (a, b, c, d) at ``level`` to its end: the
    first by f(c) > f(d) where those are known (not None), the others as
    its model (t, sl, sr) predicts."""
    w = (sl + sr) * t
    xs, lefts = [], []
    left = fc > fd if fc is not None else sl * c + sr * d > w
    for _ in range(_GOLDEN_MAX_ITER - level):
        lefts.append(left)
        if left:
            b, d = d, c
            c = b - _INV_PHI * (b - a)
            xs.append(c)
        else:
            a, c = c, d
            d = a + _INV_PHI * (b - a)
            xs.append(d)
        if abs(b - a) < xtol:
            break
        left = sl * c + sr * d > w
    return xs, lefts


def _vertex(x1, y1, x2, y2, x3, y3):
    """The abscissa of the maximum of the parabola through three points,
    x1 < x2 < x3, where it opens downward; otherwise that of the higher
    end."""
    p = (x2 - x1) * (y2 - y3)
    q = (x2 - x3) * (y2 - y1)
    if p > q:
        return x2 - 0.5 * ((x2 - x1) * p - (x2 - x3) * q) / (p - q)
    return x3 if y3 > y1 else x1
