"""Oracles that live with the tests: pointwise reads of step functions
and fixed sets, slopes as Fractions, fixed sets sorted and merged from an
unordered scan, inner products and the input-file form of a generator set,
which the library never needs; the Koopman operations and the window
estimator's loops and a bound report's own reals in their plain mpf form;
and the seeded generators of kazhlip.verify as sorted sets of Fractions."""

from bisect import bisect_right
from fractions import Fraction

import mpmath
from mpmath import mpf

from kazhlip import IntervalUnion, PLHomeo, StepFunction
from kazhlip.koopman import check_exponent, refine
from kazhlip.plmap import evaluate_sorted, format_rational
from kazhlip.precision import to_real
from kazhlip.verify import random_rational


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


def piece_slopes(nodes):
    """The slope of each piece between consecutive nodes, as a Fraction."""
    return tuple(Fraction(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(nodes, nodes[1:]))


def inner_product(xi: StepFunction, eta: StepFunction) -> mpf:
    """Exact piecewise integral of the product over the common refinement."""
    total = mpf(0)
    for a, b, u, v in refine(xi, eta):
        if u != 0 and v != 0:
            total += u * v * to_real(b - a)
    return total


def from_intervals(parts) -> IntervalUnion:
    """Normalize an arbitrary list of closed intervals: sort and merge
    overlapping or touching components."""
    parts = [(lo, hi) for lo, hi in parts]
    for lo, hi in parts:
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"interval [{lo}, {hi}] is empty")
    parts.sort(key=lambda part: (0, Fraction(0)) if part[0] is None else (1, part[0]))
    merged = []
    for lo, hi in parts:
        if merged:
            plo, phi = merged[-1]
            # closed intervals touch when endpoints meet
            if phi is None or lo is None or lo <= phi:
                merged[-1] = (plo, None if (phi is None or hi is None) else max(phi, hi))
                continue
        merged.append((lo, hi))
    return IntervalUnion(tuple(merged))


def set_obj(S) -> dict:
    """The GeneratorSet S as an input file's JSON object, which
    GeneratorSet.from_obj reads back as S."""
    return {
        "name": S.name,
        "symmetric": S.symmetric,
        "generators": [
            {
                "label": label,
                "map": {"nodes": [[format_rational(x), format_rational(y)] for x, y in g.nodes]},
            }
            for label, g in S.generators
        ],
    }


def is_canonical(u) -> bool:
    """Sorted, disjoint, non-adjacent components with lo <= hi."""
    comps = u.components
    for lo, hi in comps:
        assert lo is None or hi is None or lo <= hi
    for (_, hi), (lo, _) in zip(comps, comps[1:]):
        assert hi is not None and lo is not None and hi < lo
    return True


def fixed_pieces(f):
    """The fixed points of the PLHomeo f, piece by piece and unordered: each
    tail and piece on the diagonal, each node on it, and each crossing
    inside a piece."""
    xs = [x for x, _ in f.nodes]
    offsets = [y - x for x, y in f.nodes]
    parts = []
    if offsets[0] == 0:
        parts.append((None, xs[0]))
    if offsets[-1] == 0:
        parts.append((xs[-1], None))
    for x0, x1, d0, d1 in zip(xs, xs[1:], offsets, offsets[1:]):
        if d0 == d1 == 0:
            parts.append((x0, x1))
        elif d0 == 0 or d1 == 0:
            x = x0 if d0 == 0 else x1
            parts.append((x, x))
        elif d0 * d1 < 0:
            root = x0 + Fraction((x1 - x0) * d0) / (d0 - d1)
            parts.append((root, root))
    return parts


# The Koopman operations as mpf expressions. The library runs them on raw
# libmp values, with each piece length and slope one rounded quotient of
# integers; these are the references it must agree with, bit for bit.

_ZERO = mpf(0)


def lp_norm(xi: StepFunction, p) -> mpf:
    p = check_exponent(p)
    total = mpf(0)
    for (a, b), v in zip(zip(xi.breakpoints, xi.breakpoints[1:]), xi.values):
        if v != 0:
            total += abs(v) ** p * to_real(b - a)
    return total ** (1 / p)


def koopman_apply(g, xi: StepFunction, p) -> StepFunction:
    r = 1 / check_exponent(p)
    bps, vals = xi.breakpoints, xi.values
    gx, gy = zip(*g.nodes)
    inv = tuple(zip(gy, gx))
    n = len(gx)
    k = bisect_right(gx, bps[0]) if n > 1 else n
    xs, values = [bps[0]], []
    last = root = None
    for v, b in zip(vals, bps[1:]):
        while True:
            if v == 0:
                values.append(_ZERO)
            else:
                if k != last:
                    s = piece_slopes(inv[k - 1 : k + 1])[0] if 0 < k < n else 1
                    root, last = to_real(s) ** r, k
                values.append(v * root)
            if k == n or gx[k] >= b:
                break
            xs.append(gx[k])
            k += 1
        xs.append(b)
        if k < n and gx[k] == b:
            k += 1
    return StepFunction(tuple(evaluate_sorted(gx, gy, xs)), tuple(values))


def subtract(xi: StepFunction, eta: StepFunction) -> StepFunction:
    pieces = refine(xi, eta)
    return StepFunction(
        (pieces[0][0], *[b for _, b, _, _ in pieces]),
        tuple(u - v for _, _, u, v in pieces),
    )


def mazur_map(xi: StepFunction, q, p) -> StepFunction:
    q = check_exponent(q)
    p = check_exponent(p)
    r = q / p
    out = []
    for v in xi.values:
        if v == 0:
            out.append(_ZERO)
        else:
            out.append(mpmath.sign(v) * abs(v) ** r)
    return StepFunction(xi.breakpoints, tuple(out))


def normalize(xi: StepFunction, p) -> StepFunction:
    c = 1 / lp_norm(xi, p)
    return StepFunction(xi.breakpoints, tuple(v * c for v in xi.values))


# The window estimator's per-piece loops as mpf expressions. The library
# runs them on raw libmp values and finds the pieces inside a window by
# bisection; these are the references it must agree with, bit for bit.
# A WindowMap and its cuts hold raw values, which these read and build
# through mpf. A cut is None from N0 on, and otherwise the plain triple
# (exact, full, partial) that WindowMap.cut returns.

_make = mpmath.mp.make_mpf


def window_cut(wm, n):
    """WindowMap.cut by a scan over every piece that meets O."""
    if n >= wm.n0:
        return None
    xs, ys = wm.xs, wm.ys
    g_lo, g_hi = evaluate_sorted(xs, ys, (-n, n))
    lo, hi = max(g_lo, -n), min(g_hi, n)
    if lo >= hi:
        return to_real(4 * n)._mpf_, range(0), ()
    inv_lo, inv_hi = evaluate_sorted(ys, xs, (-n, n))
    preimage = min(inv_hi, n) - max(inv_lo, -n)
    full, partial = [], []
    j = max(bisect_right(ys, lo) - 1, 0)
    while j < len(ys) - 1 and ys[j] < hi:
        a, b = max(ys[j], lo), min(ys[j + 1], hi)
        if (a, b) == (ys[j], ys[j + 1]):
            full.append(j)
        elif a < b:
            partial.append((j, to_real(b - a)._mpf_))
        j += 1
    return (
        to_real(4 * n - (hi - lo) - preimage)._mpf_,
        range(full[0], full[-1] + 1) if full else range(0),
        tuple(partial),
    )


def window_profile(wm, p):
    """The weights, masses and K of WindowMap.row at p as mpf expressions."""
    p = to_real(p)
    r = 1 / p
    if r == 0.5:
        roots = [_make(s) ** r for s in wm.slopes]
    else:
        roots = [mpmath.exp(mpmath.fmul(r, _make(c), exact=True)) for c in wm.log_slopes]
    weights = tuple(abs(x - 1) ** p for x in roots)
    masses = tuple(w * _make(length) for w, length in zip(weights, wm.lengths))
    return weights, masses, _make(wm.tails) + mpmath.fsum(masses)


def scaled_power(profile, cut) -> mpf:
    """One entry of WindowMap.row, from the mpf (weights, masses, K) of
    `window_profile` and a cut."""
    weights, masses, constant = profile
    if cut is None:
        return constant
    exact, full, partial = cut
    total = _make(exact)
    for j in full:
        total += masses[j]
    for j, length in partial:
        total += weights[j] * _make(length)
    return total


# A bound report's own reals as mpf expressions: the proof bounds, the
# transfer, the branches of phi_inv and the headline. bounds runs them on
# raw libmp values; these are the references it must agree with, bit for bit.


def lemma41_proof_bound(n, L, M) -> mpf:
    """Lemma 4.1's per-n bound sqrt(2 - 2 ((n - M)/n) L^{-1/2}) at p = 2."""
    root_L = mpmath.sqrt(to_real(L))
    return mpmath.sqrt(2 - 2 * to_real(Fraction(n - M, n)) / root_L)


def lp_proof_bound(n, p, L, M) -> mpf:
    """The L^p per-n bound (4ML / (2n) + ((n + M)/n) c^p)^{1/p}, with c the
    log-power constant log L / (p - log L)."""
    p, Lr, Mr, nr = to_real(p), to_real(L), to_real(M), to_real(n)
    log_L = mpmath.log(Lr)
    weight_bound = (log_L / (p - log_L)) ** p
    four_ML = 4 * Mr * Lr
    return (four_ML / (2 * nr) + (nr + Mr) / nr * weight_bound) ** (1 / p)


def transfer(p, d) -> mpf:
    """The Kazhdan upper bound (p/2) d of one distortion d."""
    return p / 2 * d


def phi_inv_branches(t) -> tuple:
    """(1/2) log t and sqrt2 (1 - t^{-1/2})^{1/2}."""
    return mpmath.log(t) / 2, mpmath.sqrt(2) * mpmath.sqrt(1 - t ** mpf("-0.5"))


def headline(L, sweep) -> mpf:
    """The minimum of phi_inv(L) and of the transfer of every cell's
    distortion."""
    return min([min(phi_inv_branches(to_real(L))), *(transfer(c.p, c.distortion) for c in sweep)])


# The seeded generators as sorted sets of Fractions, the map validated by
# PLHomeo's constructor. kazhlip.verify keys its draws on ints and builds
# the map as canonical; it must make the same draws and the same results.


def random_plhomeo(rng, max_nodes=8, max_mag=1000) -> PLHomeo:
    k = rng.randint(1, max_nodes)
    xs = sorted({random_rational(rng, max_mag) for _ in range(k)})
    ys = sorted({random_rational(rng, max_mag) for _ in range(len(xs))})
    while len(ys) < len(xs):
        ys = sorted(set(ys) | {random_rational(rng, max_mag)})
    return PLHomeo(tuple(zip(xs, ys[: len(xs)])))


def random_step_function(rng, max_pieces=6, max_mag=50) -> StepFunction:
    k = rng.randint(1, max_pieces)
    bps = sorted({random_rational(rng, max_mag) for _ in range(k + 1)})
    while len(bps) < 2:
        bps = sorted(set(bps) | {random_rational(rng, max_mag)})
    values = []
    for _ in range(len(bps) - 1):
        v = rng.uniform(-5, 5)
        if abs(v) < 0.1:
            v = 0.5
        values.append(mpf(repr(v)))
    return StepFunction(tuple(bps), tuple(values))
