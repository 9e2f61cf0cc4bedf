"""Self-contained 1-D numerics: adaptive Gauss-Kronrod quadrature and
golden-section maximisation, each for one problem and for a batch of
independent problems solved in lockstep.

The quadrature drives the single-scatter gain integral; the golden-section
search drives the steering optimisation.  Both work on plain callables; the
quadrature expects a vectorised integrand (ndarray in, ndarray out) so that
whole refinement rounds cost a single numpy call.

The batched forms run the one-problem algorithm of every problem side by
side, with the same rule, tolerances and stopping tests.  A problem's
arithmetic never mixes with another's: its panels keep their own order and
its total is a sequential sum of them, so its result does not depend on
which other problems share the batch.  ``gauss_kronrod_panels`` runs the
same refinement loop with a per-panel stopping test and returns the final
panels themselves, for callers that integrate many sub-intervals of one
problem from them.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "QuadratureError",
    "adaptive_gauss_kronrod",
    "batched_gauss_kronrod",
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
    """Integrate a vectorised integrand over [a, b] by adaptive bisection.

    ``f`` maps a 1-D array of points to their values.  Each refinement
    round re-evaluates every out-of-budget panel with the (G7, K15) pair; a
    panel's error estimate is |K15 - G7|, an estimate and not a bound, so the
    result can miss ``rel_tol``.  The local error budget is the global budget
    prorated by panel width.  This is the one-problem call of
    ``batched_gauss_kronrod``.
    """
    total = batched_gauss_kronrod(
        lambda item, x: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape),
        [a], [b], rel_tol, abs_tol, max_panels,
    )
    return float(total[0])


def _panel_estimates(f, item: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Kronrod/Gauss estimates for a batch of panels in one integrand call.

    ``f`` returns shape (n_panels, 15), or (n_panels, c, 15) for c
    integrands at once; so are the estimates shaped (n_panels[, c]).  Row
    sums, not a matrix product, whose rows may round differently with the
    number of panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # shape (n_panels, 15)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(item, pts), dtype=float)
    half = half.reshape(half.shape + (1,) * (vals.ndim - 2))
    ik = half * (vals * _WEIGHTS_K).sum(axis=-1)
    ig = half * (vals * _WEIGHTS_G).sum(axis=-1)
    return ik, np.abs(ik - ig)


def batched_gauss_kronrod(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-30,
    max_panels: int = 2048,
) -> np.ndarray:
    """Integrate problem k over [a[k], b[k]] for every k at once.

    ``f(item, x)`` evaluates problem ``item[i]`` at the points ``x[i, :]``.
    Each problem refines on its own: every round splits each of its panels
    whose |K15 - G7| exceeds the problem's budget, max(rel_tol * |total|,
    abs_tol), prorated by panel width, and the problem leaves the batch once
    no panel does.  ``QuadratureError`` when a problem would exceed
    ``max_panels`` panels or 64 rounds.  Problems with b <= a integrate to 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    item = np.flatnonzero(b > a)
    return _refine(f, item, a[item], b[item], a.size, rel_tol, abs_tol, max_panels, b - a)[0]


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

    ``f(item, x)`` returns c integrands at once, shape (len(item), c, 15).
    The refinement is ``batched_gauss_kronrod``'s, except that each panel
    meets the tolerance on its own: a panel is split while the sum of its c
    values of |K15 - G7| exceeds max(rel_tol * m, abs_tol), m being its
    largest |K15|.  So a problem's final panels depend on its own first
    panels only.  Returns (item, lo, hi, ik, err): panel i spans
    [lo[i], hi[i]] of problem item[i], ordered by problem and then by
    position, with its K15 integrals ik[i] and |K15 - G7| err[i], shape
    (c,) each.
    """
    item = np.asarray(item)
    n = int(item.max()) + 1 if item.size else 0
    _, *panels = _refine(
        f, item, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), n,
        rel_tol, abs_tol, max_panels,
    )
    order = np.lexsort((panels[1], panels[0]))
    return tuple(p[order] for p in panels)


def _refine(f, item, lo, hi, n, rel_tol, abs_tol, max_panels, width=None):
    """The refinement loop of n problems from the first panels (item, lo,
    hi): (totals, item, lo, hi, ik, err), the last five of the final panels.
    ``width``, each problem's length, selects ``batched_gauss_kronrod``'s
    prorated budget; without it each panel is tested on its own, as
    ``gauss_kronrod_panels`` does."""
    per_panel = width is None
    out = np.zeros(n)
    ik, err = _panel_estimates(f, item, lo, hi)
    final = [(item[:0], lo[:0], hi[:0], ik[:0], err[:0])]
    for _ in range(64):
        if not item.size:
            break
        if per_panel:
            bad = err.sum(axis=1) > np.maximum(rel_tol * np.abs(ik).max(axis=1), abs_tol)
        else:
            # sequential per-problem sums, in each problem's own panel order
            total = np.bincount(item, weights=ik, minlength=n)
            budget = np.maximum(rel_tol * np.abs(total), abs_tol)
            bad = err > budget[item] * (hi - lo) / width[item]
        split = item[bad]
        panels = np.bincount(item, minlength=n)
        n_bad = np.bincount(split, minlength=n)
        done = n_bad[item] == 0
        if per_panel:
            final.append((item[done], lo[done], hi[done], ik[done], err[done]))
        else:
            np.copyto(out, total, where=(panels > 0) & (n_bad == 0))
        if (panels + n_bad > max_panels).any():
            k = int(np.argmax(panels + n_bad))
            raise QuadratureError(f"exceeded {max_panels} panels (problem {k})")
        if not split.size:
            break
        keep = (n_bad[item] > 0) & ~bad
        split_lo, split_hi = lo[bad], hi[bad]
        mid = 0.5 * (split_lo + split_hi)
        split_ik, split_err = _panel_estimates(
            f,
            np.concatenate([split, split]),
            np.concatenate([split_lo, mid]),
            np.concatenate([mid, split_hi]),
        )
        lo = np.concatenate([lo[keep], split_lo, mid])
        hi = np.concatenate([hi[keep], mid, split_hi])
        item = np.concatenate([item[keep], split, split])
        ik = np.concatenate([ik[keep], split_ik])
        err = np.concatenate([err[keep], split_err])
    else:
        raise QuadratureError("refinement did not converge in 64 rounds")
    return (out,) + tuple(np.concatenate(parts) for parts in zip(*final))


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


@functools.lru_cache(maxsize=None)
def _golden_tree(levels: int):
    """Index tables of every bracket that ``levels`` levels of the golden
    section can reach from a root bracket (a, b, c, d), in heap order: node
    j's children are 2j + 1, taken where f(c) > f(d), and 2j + 2.

    A round keeps its points in one table, a row per point: the root's a,
    b, c and d in rows 0-3 and node j's new point in row 3 + j.  Returns
    the rows of each node's (a, b, c, d), shape (nodes, 4); one (rows,
    sign) per level, rows of shape (3, the level's nodes) holding their a,
    b and the point their new point steps from by sign * phi * (b - a);
    and each node's number and its second child's, shape (nodes, 1)."""
    node, steps = [(0, 1, 2, 3)], []
    for t in range(levels):
        level = []
        for j in range(2**t - 1, 2 ** (t + 1) - 1):
            a, b, c, d = node[j]
            # x = d - phi (d - a) on the left, c + phi (b - c) on the right
            level += [(a, d, 2 * j + 4, c), (c, b, d, 2 * j + 5)]
        node += level
        a, b = np.array(level)[:, :2].T
        left = np.arange(a.size) % 2 == 0
        sign = np.where(left, -_INV_PHI, _INV_PHI)[:, None]
        steps.append((np.array([a, b, np.where(left, b, a)]), sign))
    own = np.arange(len(node))[:, None]
    return np.array(node), steps, own, 2 * own + 2


def _golden_round(f, live, bracket, levels, xtol):
    """``levels`` levels of the golden section for the problems live, from
    their brackets (a, b, c, d, f(c), f(d)), arrays of shape (m,), with one
    call of f.

    f(c) and f(d) are None in the first round, whose call evaluates c and
    d too.  A later round takes its first level's branch, which they give,
    at once.  The levels after that may go either way: a tree
    (``_golden_tree``) holds every bracket they can reach, and the same
    call evaluates their new points, 2^(levels+1) points per problem in
    the first round and 2^levels - 1 in a later one.  Each problem then
    walks down the tree, following f(c) > f(d), to the first bracket
    narrower than ``xtol`` or to the round's last level.  Returns the
    bracket each problem stops at, and whether it is that narrow."""
    a, b, c, d, fc, fd = bracket
    m = live.size
    if fc is None:
        points, width = [c, d], np.full(m, np.inf)  # the first bracket is no level
    else:
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = b - a
        x = np.where(left, b - _INV_PHI * width, a + _INV_PHI * width)
        c, d = np.where(left, x, d), np.where(left, c, x)
        points = [x]
    node, steps, own, right = _golden_tree(levels + len(points) - 2)
    head = len(points) * m  # the values of c and d, or of the level's point
    if steps:
        table = np.empty((node.shape[0] + 3, m))
        table[:4] = a, b, c, d
        widths = np.empty((node.shape[0], m))
        widths[0] = width
        start = 1
        for rows, sign in steps:
            lo, hi, base = table[rows]
            stop = start + sign.size
            widths[start:stop] = hi - lo
            table[start + 3:stop + 3] = base + sign * widths[start:stop]
            start = stop
        points.append(table[4:].ravel())
    points = np.concatenate(points)
    got = f(np.repeat(live[None], points.size // m, axis=0).ravel(), points)
    if fc is None:
        fc, fd = got[:m], got[m:2 * m]
    else:
        fc, fd = np.where(left, got[:m], fd), np.where(left, fc, got[:m])
    if not steps:  # the round's one level, or in the first round none
        return (a, b, c, d, fc, fd), np.abs(width) < xtol
    fx = np.empty(table.shape)  # rows 0 and 1, the root's a and b, stay unread
    fx[2], fx[3] = fc, fd
    fx[4:] = got[head:].reshape(-1, m)
    # each node's next, itself where its bracket is narrower than xtol
    narrow = np.abs(widths) < xtol
    step = np.where(narrow, own, right - (fx[node[:, 2]] > fx[node[:, 3]]))
    cells = np.arange(m)
    at = step[0]
    for _ in steps[1:]:
        at = step.ravel()[at * m + cells]
    rows = np.take(node, at, axis=0).T * m + cells
    return (*table.ravel()[rows], *fx.ravel()[rows[2:]]), narrow.ravel()[at * m + cells]


def _golden_depth(live: int) -> Tuple[int, int]:
    """Levels of the first round and of each later round of
    ``batched_golden_section_max`` for ``live`` problems.  A later round of
    D levels evaluates 2^D - 1 points per problem in one call to save
    D - 1 calls; a first round of D levels, c and d and 2^(D+1) - 2 more
    points to save D.  That pays while a call's fixed cost outweighs the
    extra points, so only for few problems.  Timed on the gain field's row
    tables (standard-map cells, 2-core x86-64 host): (3, 3) is fastest at
    8 cells; (2, 3) at 22 to 64, with (3, 3) 4-9 % slower and (0, 1) 3-19 %
    slower; (0, 1), c and d alone and then one level per call, ties with
    (1, 1) at 128 cells, where (2, 3) is 11 % slower."""
    return (3, 3) if live <= 16 else (2, 3) if live <= 64 else (0, 1)


def batched_golden_section_max(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    xtol: float = 1e-6,
) -> Tuple[np.ndarray, np.ndarray]:
    """``golden_section_max`` on [a[k], b[k]], a[k] <= b[k], for every k, in
    lockstep; fa and fb are the values at a and b.

    ``f(k, x)`` evaluates problems ``k`` at points ``x``, and a problem's
    value must not depend on the others evaluated with it.  The problems
    step in rounds of D levels, one call of f each (``_golden_round``): a
    round evaluates every point that its levels' comparisons may lead to,
    and its levels then read their values.  The first round evaluates the
    first inner points c and d as well, and may have its own D, 0 for c
    and d alone (``_golden_depth``).  A problem leaves the batch at the
    level that narrows its bracket below ``xtol``.  So each problem
    visits exactly the points, and gets exactly the values, of
    ``golden_section_max``.  Returns (x, f(x)) arrays.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    best_x = np.where(fb > fa, b, a)
    best_f = np.where(fb > fa, fb, fa)
    # (c, d, f(c), f(d)) of each problem's last bracket
    final = [np.empty(a.size) for _ in range(4)]
    live = np.arange(a.size)
    bracket = (a, b, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a), None, None)
    level = 0
    while live.size:
        levels = _golden_depth(live.size)[bracket[4] is not None]
        levels = min(levels, _GOLDEN_MAX_ITER - level)
        bracket, stop = _golden_round(f, live, bracket, levels, xtol)
        level += levels
        if level == _GOLDEN_MAX_ITER:
            stop = np.ones(live.size, dtype=bool)
        if stop.any():
            for out, v in zip(final, bracket[2:]):
                out[live[stop]] = v[stop]
            going = ~stop
            live, bracket = live[going], tuple(v[going] for v in bracket)
    for x, fx in zip(final[:2], final[2:]):
        better = fx > best_f
        best_x = np.where(better, x, best_x)
        best_f = np.where(better, fx, best_f)
    return best_x, best_f
