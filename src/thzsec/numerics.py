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


def _golden_step(left, a, b, c, d):
    """One level of the golden section on [a, b] with inner points c < d:
    the new bracket, its new point and its inner points, where ``left``
    says f(c) > f(d)."""
    a_new = np.where(left, a, c)
    b_new = np.where(left, d, b)
    x_new = np.where(
        left, b_new - _INV_PHI * (b_new - a_new), a_new + _INV_PHI * (b_new - a_new)
    )
    return a_new, b_new, x_new, np.where(left, x_new, d), np.where(left, c, x_new)


def _golden_depth(live: int) -> int:
    """Levels per round of ``batched_golden_section_max`` for ``live``
    problems.  A round of depth D evaluates 2^D - 1 points per problem in
    one call to save D - 1 calls: that pays while a call's fixed cost
    outweighs the extra points, so only for few problems.  On the gain
    field's row tables, D = 3 is fastest at 8 and 22 cells, D = 1 to 3 tie
    from 32 to 48, and D = 1 is fastest from 96 cells on."""
    return 3 if live <= 32 else 1


def _golden_lookahead(f, live, node, x, depth):
    """Values of every point that ``depth`` levels may visit, from the
    level whose bracket, inner points and new point are node = (a, b, c, d)
    and x, one of each per problem of live.  Level t (from 0) has 2^t nodes
    per problem, and nodes 2j and 2j + 1 follow node j of level t - 1 where
    its f(c) > f(d) holds and where it fails; all are evaluated in one call
    of f.  Returns one (len(live), 2^t) array of values per level."""
    node = tuple(v[:, None] for v in node)
    points = [x[:, None]]
    for t in range(1, depth):
        node = tuple(np.repeat(v, 2, axis=1) for v in node)
        a_t, b_t, x_t, c_t, d_t = _golden_step(np.arange(2**t) % 2 == 0, *node)
        node = (a_t, b_t, c_t, d_t)
        points.append(x_t)
    values = f(
        np.concatenate([np.repeat(live, 2**t) for t in range(depth)]),
        np.concatenate([x_t.ravel() for x_t in points]),
    )
    tables, start = [], 0
    for x_t in points:
        tables.append(values[start:start + x_t.size].reshape(x_t.shape))
        start += x_t.size
    return tables


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
    still wider than ``xtol`` step one level at a time, in rounds of D
    levels: a round's first level evaluates, in one call, every point of
    the D levels that the comparisons may lead to (2^D - 1 per problem),
    and its levels then read their values.  D comes from the number of
    live problems (``_golden_depth``); at D = 1 each level calls f for its
    new points alone.  So each problem visits exactly
    the points, and gets exactly the values, of ``golden_section_max``.
    Returns (x, f(x)) arrays.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    every = np.arange(a.size)
    best_x = np.where(fb > fa, b, a)
    best_f = np.where(fb > fa, fb, fa)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.split(f(np.concatenate([every, every]), np.concatenate([c, d])), 2)
    live, tables = every, []
    for _ in range(_GOLDEN_MAX_ITER):
        if not live.size:
            break
        left = fc[live] > fd[live]
        a_new, b_new, x_new, c_new, d_new = _golden_step(
            left, a[live], b[live], c[live], d[live]
        )
        if tables:  # a later level of a round: follow the branch taken
            j = 2 * j + ~left
        else:  # a round's first level
            tables = _golden_lookahead(
                f, live, (a_new, b_new, c_new, d_new), x_new, _golden_depth(live.size)
            )
            # each live problem's row of the tables, and its node
            row, j = np.arange(live.size), np.zeros(live.size, dtype=int)
        f_new = tables.pop(0)[row, j]
        c[live], d[live] = c_new, d_new
        fc[live], fd[live] = np.where(left, f_new, fd[live]), np.where(left, fc[live], f_new)
        a[live], b[live] = a_new, b_new
        going = ~(np.abs(b_new - a_new) < xtol)
        live = live[going]
        if tables:
            row, j = row[going], j[going]
    for x, fx in ((c, fc), (d, fd)):
        better = fx > best_f
        best_x = np.where(better, x, best_x)
        best_f = np.where(better, fx, best_f)
    return best_x, best_f
