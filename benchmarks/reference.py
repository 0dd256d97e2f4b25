"""Independent references the benchmark checks kazhlip's outputs against.

Nothing here imports kazhlip. PL maps are plain node lists
[(x_0, y_0), ..., (x_k, y_k)] of Fractions with slope-1 tails, the same
model the package documents; step functions are (breakpoints, values)
pairs. Real arithmetic runs at REF_DIGITS, above the package's default
working precision of 30 digits, so a disagreement beyond the comparison
tolerance is the program's.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

import mpmath
from mpmath import mpf

REF_DIGITS = 40


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a, b, rel, what: str) -> None:
    """Relative comparison with an absolute floor for values near 0."""
    a, b = mpf(a), mpf(b)
    scale = max(abs(a), abs(b), mpf(10) ** -REF_DIGITS)
    require(abs(a - b) <= rel * scale, f"{what}: {a} != {b} (rel {rel})")


def real(q) -> mpf:
    q = Fraction(q)
    return mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# PL maps of the line from their nodes


def pl_eval(nodes, x: Fraction) -> Fraction:
    xs = [a for a, _ in nodes]
    if x <= xs[0]:
        return x + nodes[0][1] - nodes[0][0]
    if x >= xs[-1]:
        return x + nodes[-1][1] - nodes[-1][0]
    i = bisect_right(xs, x) - 1
    (x0, y0), (x1, y1) = nodes[i], nodes[i + 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def pl_inverse(nodes):
    return [(y, x) for x, y in nodes]


def pl_slopes(nodes):
    return [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(nodes, nodes[1:])]


def pl_lip(nodes) -> Fraction:
    return max([Fraction(1)] + [max(s, 1 / s) for s in pl_slopes(nodes)])


def pl_displacement(nodes) -> Fraction:
    return max(abs(y - x) for x, y in nodes)


def pl_fixed_intervals(nodes):
    """Solution set of f(x) = x as closed intervals; None is an infinite end."""
    parts = []
    d = [y - x for x, y in nodes]
    if d[0] == 0:
        parts.append((None, nodes[0][0]))
    if d[-1] == 0:
        parts.append((nodes[-1][0], None))
    for i in range(len(nodes) - 1):
        (x0, _), (x1, _) = nodes[i], nodes[i + 1]
        if d[i] == 0 or d[i + 1] == 0:
            lo = x0 if d[i] == 0 else x1
            hi = x1 if d[i + 1] == 0 else x0
            parts.append((lo, hi))
        elif (d[i] < 0) != (d[i + 1] < 0):
            root = x0 + (x1 - x0) * d[i] / (d[i] - d[i + 1])
            parts.append((root, root))
    return parts


def intersect_intervals(a, b):
    out = []
    for alo, ahi in a:
        for blo, bhi in b:
            lo = blo if alo is None else alo if blo is None else max(alo, blo)
            hi = bhi if ahi is None else ahi if bhi is None else min(ahi, bhi)
            if lo is None or hi is None or lo <= hi:
                out.append((lo, hi))
    return out


def common_fixed_points(maps) -> list:
    """Points fixed by every map, as intervals; empty means the
    no-global-fixed-point hypothesis holds."""
    common = [(None, None)]
    for nodes in maps:
        common = intersect_intervals(common, pl_fixed_intervals(nodes))
    return common


def word_eval(letters, maps, x: Fraction) -> Fraction:
    """Value at x of the word l_1 ... l_k, letter by letter: l_k acts
    first, as in kazhlip's word_evaluate and ball."""
    for label, exp in reversed(letters):
        nodes = maps[label]
        x = pl_eval(nodes if exp == 1 else pl_inverse(nodes), x)
    return x


# ---------------------------------------------------------------------------
# Window distortion and L^p norms


def window_distortion(nodes, n: Fraction, p) -> mpf:
    """||pi(g) xi_n - xi_n||_p for xi_n = (2n)^{-1/p} 1_{[-n, n]},
    integrating |1_{g[-n,n]} (g^{-1})'^{1/p} - 1_{[-n,n]}|^p piece by piece
    between the nodes' images and the window ends."""
    with mpmath.workdps(REF_DIGITS):
        p = mpf(p)
        lo_img, hi_img = pl_eval(nodes, -n), pl_eval(nodes, n)
        ys = [y for _, y in nodes]
        inv_slopes = [1 / s for s in pl_slopes(nodes)]
        cuts = sorted({lo_img, hi_img, -n, n} | {y for y in ys if -n < y < n or lo_img < y < hi_img})
        total = mpf(0)
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            in_img = lo_img < mid < hi_img
            in_win = -n < mid < n
            if not (in_img or in_win):
                continue
            if ys[0] < mid < ys[-1]:
                s = inv_slopes[bisect_right(ys, mid) - 1]
            else:
                s = Fraction(1)
            moved = real(s) ** (1 / p) if in_img else mpf(0)
            total += abs(moved - (1 if in_win else 0)) ** p * real(b - a)
        return +((total / real(2 * n)) ** (1 / p))


def lp_norm(breakpoints, values, p) -> mpf:
    with mpmath.workdps(REF_DIGITS):
        p = mpf(p)
        total = mpf(0)
        for a, b, v in zip(breakpoints, breakpoints[1:], values):
            total += abs(mpf(v)) ** p * real(b - a)
        return +(total ** (1 / p))


def step_value(breakpoints, values, x: Fraction):
    if x < breakpoints[0] or x >= breakpoints[-1]:
        return mpf(0)
    return values[bisect_right(breakpoints, x) - 1]


def koopman_value(nodes, breakpoints, values, p, x: Fraction) -> mpf:
    """(pi(g) xi)(x) = xi(g^{-1} x) (g^{-1})'(x)^{1/p} at a point x where
    g^{-1} is differentiable."""
    inv = pl_inverse(nodes)
    xs = [a for a, _ in inv]
    if xs[0] < x < xs[-1]:
        s = pl_slopes(inv)[bisect_right(xs, x) - 1]
    else:
        s = Fraction(1)
    with mpmath.workdps(REF_DIGITS):
        return +(mpf(step_value(breakpoints, values, pl_eval(inv, x))) * real(s) ** (1 / mpf(p)))


# ---------------------------------------------------------------------------
# The bound function phi_inv, from its definition


def phi_inv(t) -> mpf:
    with mpmath.workdps(REF_DIGITS):
        t = real(t)
        return +min(mpmath.log(t) / 2, mpmath.sqrt(2) * mpmath.sqrt(1 - 1 / mpmath.sqrt(t)))
