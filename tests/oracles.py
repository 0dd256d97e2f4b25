"""Oracles that live with the tests: pointwise reads of step functions
and fixed sets, which the library never needs, and the window estimator's
loops in their plain mpf form."""

from bisect import bisect_right
from fractions import Fraction

import mpmath
from mpmath import mpf

from kazhlip import StepFunction
from kazhlip.koopman import WindowCut
from kazhlip.plmap import evaluate_sorted
from kazhlip.precision import to_real


def indicator(a, b, value=1) -> StepFunction:
    """value on [a, b), zero elsewhere."""
    return StepFunction((Fraction(a), Fraction(b)), (mpf(value),))


def support(xi: StepFunction):
    return xi.breakpoints[0], xi.breakpoints[-1]


def value_at(xi: StepFunction, x) -> mpf:
    """xi's value on the piece containing x (right-continuous)."""
    if x < xi.breakpoints[0] or x >= xi.breakpoints[-1]:
        return mpf(0)
    return xi.values[bisect_right(xi.breakpoints, x) - 1]


def contains(union, x) -> bool:
    """Whether the IntervalUnion `union` holds the point x."""
    return any(
        (lo is None or lo <= x) and (hi is None or x <= hi) for lo, hi in union.components
    )


# The window estimator's per-piece loops as mpf expressions. The library
# runs them on raw libmp values and finds the pieces inside a window by
# bisection; these are the references it must agree with, bit for bit.


def window_cut(wm, n) -> WindowCut:
    """WindowMap.cut by a scan over every piece that meets O."""
    if n >= wm.n0:
        return WindowCut(covers_nodes=True)
    xs, ys = wm.xs, wm.ys
    g_lo, g_hi = evaluate_sorted(xs, ys, (-n, n))
    lo, hi = max(g_lo, -n), min(g_hi, n)
    if lo >= hi:
        return WindowCut(covers_nodes=False, exact=to_real(4 * n))
    inv_lo, inv_hi = evaluate_sorted(ys, xs, (-n, n))
    preimage = min(inv_hi, n) - max(inv_lo, -n)
    full, partial = [], []
    j = max(bisect_right(ys, lo) - 1, 0)
    while j < len(ys) - 1 and ys[j] < hi:
        a, b = max(ys[j], lo), min(ys[j + 1], hi)
        if (a, b) == (ys[j], ys[j + 1]):
            full.append(j)
        elif a < b:
            partial.append((j, to_real(b - a)))
        j += 1
    return WindowCut(
        covers_nodes=False,
        exact=to_real(4 * n - (hi - lo) - preimage),
        full=range(full[0], full[-1] + 1) if full else range(0),
        partial=tuple(partial),
    )


def window_profile(wm, p):
    """(weights, masses, K) of WindowMap.at as mpf expressions."""
    p = to_real(p)
    r = 1 / p
    if r == 1 or r == 0.5:
        roots = [s ** r for s in wm.slopes]
    else:
        roots = [mpmath.exp(mpmath.fmul(r, c, exact=True)) for c in wm.log_slopes]
    weights = tuple(abs(x - 1) ** p for x in roots)
    masses = tuple(w * length for w, length in zip(weights, wm.lengths))
    return weights, masses, wm.tails + mpmath.fsum(masses)


def scaled_power(profile, cut: WindowCut) -> mpf:
    """WindowProfile.scaled_power, from the mpf (weights, masses, K) of
    `window_profile`."""
    weights, masses, constant = profile
    if cut.covers_nodes:
        return constant
    total = cut.exact
    for j in cut.full:
        total += masses[j]
    for j, length in cut.partial:
        total += weights[j] * length
    return total
