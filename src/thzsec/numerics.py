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
    return _refine(f, a, b, rel_tol, abs_tol, max_panels, 1, per_panel=False)[0]


def gauss_kronrod_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    max_panels: int,
    first_panels: int = 1,
):
    """Final panels of an adaptive refinement of problem k over [a[k], b[k]].

    ``f(item, x)`` returns c integrands at once, shape (len(item), c, 15).
    The refinement is ``batched_gauss_kronrod``'s, except that each panel
    meets the tolerance on its own: a panel is split while the sum of its c
    values of |K15 - G7| exceeds max(rel_tol * m, abs_tol), m being its
    largest |K15|, and the refinement starts from ``first_panels`` equal
    panels.  Returns (item, lo, hi, ik, err): panel i spans
    [lo[i], hi[i]] of problem item[i], ordered by problem and then by
    position, with its K15 integrals ik[i] and |K15 - G7| err[i], shape
    (c,) each.
    """
    _, *panels = _refine(f, a, b, rel_tol, abs_tol, max_panels, first_panels, per_panel=True)
    order = np.lexsort((panels[1], panels[0]))
    return tuple(p[order] for p in panels)


def _refine(f, a, b, rel_tol, abs_tol, max_panels, first_panels, per_panel):
    """The refinement loop: (totals, item, lo, hi, ik, err), the last five
    of the final panels.  ``per_panel`` selects the stopping test of
    ``gauss_kronrod_panels`` instead of the prorated budget."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(a.shape)
    width = b - a
    item = np.repeat(np.flatnonzero(width > 0), first_panels)
    part = np.arange(item.size) % first_panels
    lo = a[item] + width[item] * part / first_panels
    hi = np.where(part == first_panels - 1, b[item], a[item] + width[item] * (part + 1) / first_panels)
    ik, err = _panel_estimates(f, item, lo, hi)
    final = [(item[:0], lo[:0], hi[:0], ik[:0], err[:0])]
    for _ in range(64):
        if not item.size:
            break
        if per_panel:
            bad = err.sum(axis=1) > np.maximum(rel_tol * np.abs(ik).max(axis=1), abs_tol)
        else:
            # sequential per-problem sums, in each problem's own panel order
            total = np.bincount(item, weights=ik, minlength=a.size)
            budget = np.maximum(rel_tol * np.abs(total), abs_tol)
            bad = err > budget[item] * (hi - lo) / width[item]
        split = item[bad]
        panels = np.bincount(item, minlength=a.size)
        n_bad = np.bincount(split, minlength=a.size)
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
    max_iter: int = _GOLDEN_MAX_ITER,
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
    for _ in range(max_iter):
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
) -> Tuple[np.ndarray, np.ndarray]:
    """``golden_section_max`` on [a[k], b[k]], a[k] <= b[k], for every k, in
    lockstep; fa and fb are the values at a and b.

    ``f(k, x)`` evaluates problems ``k`` at points ``x``.  Each round
    evaluates one new point of every problem still wider than ``xtol``.
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
    live = every
    for _ in range(_GOLDEN_MAX_ITER):
        if not live.size:
            break
        left = fc[live] > fd[live]
        a_new = np.where(left, a[live], c[live])
        b_new = np.where(left, d[live], b[live])
        x_new = np.where(
            left, b_new - _INV_PHI * (b_new - a_new), a_new + _INV_PHI * (b_new - a_new)
        )
        f_new = f(live, x_new)
        c[live], d[live] = np.where(left, x_new, d[live]), np.where(left, c[live], x_new)
        fc[live], fd[live] = np.where(left, f_new, fd[live]), np.where(left, fc[live], f_new)
        a[live], b[live] = a_new, b_new
        live = live[~(np.abs(b_new - a_new) < xtol)]
    for x, fx in ((c, fc), (d, fd)):
        better = fx > best_f
        best_x = np.where(better, x, best_x)
        best_f = np.where(better, fx, best_f)
    return best_x, best_f
