"""Step functions as L^p test vectors and the Koopman action of PL maps.

A step function has exact rational breakpoints and high-precision real
values; it is zero outside its support. All integrals are evaluated over
exact common refinements of breakpoints, so the only numerical error is
value rounding at the working precision (see :mod:`kazhlip.precision`).
Step functions built from caller input are validated; the operations here
build results that are valid by construction and skip the validation.
They compute on raw libmp values (`mpf._mpf_`) with the operations and the
rounding of the mpf expressions they replace, so they give the same bits,
and make one mpf per value of their result.

The action of a PL homeomorphism g on L^p is
    (pi(g) xi)(x) = xi(g^{-1}(x)) * (Dg^{-1}(x))^{1/p},
an isometry of L^p for every p >= 1. The Mazur map
    M_{q,p}(xi) = sign(xi) |xi|^{q/p}
carries the unit sphere of L^q onto the unit sphere of L^p.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Tuple

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    fhalf, fone, fzero, from_rational, mpf_abs, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul,
    mpf_neg, mpf_pow, mpf_rdiv_int, mpf_sqrt, mpf_sub, mpf_sum,
)

from .errors import DomainError
from .plmap import PLHomeo, _slope_pairs, check_exact, evaluate_sorted, merge_sorted
from .precision import ROUNDING, read_real, to_real


def check_exponent(p, name: str = "p") -> mpf:
    """The Lebesgue exponent p as an mpf; the caller's argument `name` must
    be a finite real >= 1."""
    p = read_real(p, name)
    if not mpmath.isfinite(p) or p < 1:
        raise DomainError(f"Lebesgue exponent must satisfy {name} >= 1, got {p}")
    return p


@dataclass(frozen=True)
class StepFunction:
    """Compactly supported piecewise-constant function: value values[i] on
    [breakpoints[i], breakpoints[i+1]), zero outside."""

    breakpoints: Tuple[Fraction, ...]
    values: Tuple[mpf, ...]

    def __post_init__(self):
        bps = tuple(
            Fraction(check_exact(b, f"breakpoints[{i}]")) for i, b in enumerate(self.breakpoints)
        )
        vals = []
        for i, v in enumerate(self.values):
            try:
                vals.append(mpf(v))
            except (TypeError, ValueError) as exc:
                raise DomainError(f"values[{i}]: expected a real, got {repr(v)[:40]}") from exc
            if not mpmath.isfinite(vals[-1]):
                raise DomainError(f"values[{i}]: step function values must be finite")
        if len(bps) < 2:
            raise DomainError("a step function needs at least two breakpoints")
        if len(vals) != len(bps) - 1:
            raise DomainError(
                f"{len(bps)} breakpoints require {len(bps) - 1} values, got {len(vals)}"
            )
        for i, (a, b) in enumerate(zip(bps, bps[1:]), 1):
            if b <= a:
                raise DomainError(f"breakpoints[{i}]: not strictly increasing at {b}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", tuple(vals))

    @classmethod
    def _trusted(
        cls, breakpoints: Tuple[Fraction, ...], values: Tuple[mpf, ...]
    ) -> "StepFunction":
        """The step function with these fields, which must already be valid:
        strictly increasing Fractions and one finite mpf per piece. No
        validation and no __post_init__."""
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", breakpoints)
        object.__setattr__(f, "values", values)
        return f


_ZERO = mpf(0)


def refine(xi: StepFunction, eta: StepFunction):
    """Common refinement over the union of supports: the pieces (a, b, u, v)
    on which xi = u and eta = v, read from one merge of the two breakpoint
    lists. A function with k breakpoints at or left of a is zero on the
    piece when k is 0 or all of them, and takes its value k - 1 otherwise."""
    xv, ev = (_ZERO, *xi.values, _ZERO), (_ZERO, *eta.values, _ZERO)
    points = merge_sorted(xi.breakpoints, eta.breakpoints)
    return [(a, b, xv[i], ev[j]) for (a, i, j, _), (b, _, _, _) in zip(points, points[1:])]


def subtract(xi: StepFunction, eta: StepFunction) -> StepFunction:
    pieces = refine(xi, eta)
    prec, make = mpmath.mp.prec, mpmath.mp.make_mpf
    return StepFunction._trusted(
        (pieces[0][0], *[b for _, b, _, _ in pieces]),
        tuple(make(mpf_sub(u._mpf_, v._mpf_, prec, ROUNDING)) for _, _, u, v in pieces),
    )


def lp_norm(xi: StepFunction, p) -> mpf:
    """(sum |v_i|^p * (b_{i+1} - b_i))^{1/p} with exact piece lengths."""
    return mpmath.mp.make_mpf(_lp_norm(xi, check_exponent(p)))


def _lp_norm(xi: StepFunction, p: mpf) -> tuple:
    """lp_norm as a raw libmp value, for a p that check_exponent returned.
    Each piece length b - a is its unreduced integer cross-product,
    rounded once."""
    prec, q = mpmath.mp.prec, p._mpf_
    bps = xi.breakpoints
    an, ad = bps[0].numerator, bps[0].denominator
    total = fzero
    for b, v in zip(bps[1:], xi.values):
        bn, bd, v = b.numerator, b.denominator, v._mpf_
        if v != fzero:
            length = from_rational(bn * ad - an * bd, bd * ad, prec, ROUNDING)
            power = mpf_pow(mpf_abs(v, prec, ROUNDING), q, prec, ROUNDING)
            total = mpf_add(total, mpf_mul(power, length, prec, ROUNDING), prec, ROUNDING)
        an, ad = bn, bd
    return mpf_pow(total, mpf_rdiv_int(1, q, prec, ROUNDING), prec, ROUNDING)


def koopman_apply(g: PLHomeo, xi: StepFunction, p) -> StepFunction:
    """pi(g) xi with exact image breakpoints. Merged with g's nodes, each
    piece [a, b) of xi lies in one piece of g and maps to [g(a), g(b)),
    where g^{-1} has a constant slope s (1 on the tails); the value there
    is v * s^{1/p}. g is increasing, so the image breakpoints are too."""
    return _koopman_apply(g, xi, check_exponent(p))


def _koopman_apply(g: PLHomeo, xi: StepFunction, p: mpf) -> StepFunction:
    """koopman_apply for a p that check_exponent returned."""
    prec, make = mpmath.mp.prec, mpmath.mp.make_mpf
    r = mpf_rdiv_int(1, p._mpf_, prec, ROUNDING)
    bps, vals = xi.breakpoints, xi.values
    gx, gy = zip(*g.nodes)
    # g has the slope num/den on its piece j, an unreduced pair of ints,
    # so g^{-1} has the slope den/num on the image of that piece
    slopes = _slope_pairs(g.nodes)
    # At a merged point, i counts xi's breakpoints and j g's nodes at or
    # left of it: the piece that starts there is xi's piece i - 1 and lies
    # in g's piece j, the left tail's when j = 0. A pure translation has no
    # slope changes, so its node is not merged.
    xs, values = [], []
    last = root = None
    for x, i, j, _ in merge_sorted(bps, gx if len(gx) > 1 else ()):
        if i == 0:  # a node of g left of xi's support
            continue
        xs.append(x)
        if i == len(bps):  # the right end of xi's support
            break
        v = vals[i - 1]._mpf_
        if v == fzero:
            values.append(_ZERO)
        else:
            if j != last:  # one root per piece of g
                num, den = slopes[j]
                s = from_rational(den, num, prec, ROUNDING)
                root, last = mpf_pow(s, r, prec, ROUNDING), j
            values.append(make(mpf_mul(v, root, prec, ROUNDING)))
    return StepFunction._trusted(tuple(evaluate_sorted(gx, gy, xs)), tuple(values))


def koopman_distortion(g: PLHomeo, xi: StepFunction, p) -> mpf:
    """||pi(g) xi - xi||_p over the common breakpoint refinement."""
    p = check_exponent(p)
    return mpmath.mp.make_mpf(_lp_norm(subtract(_koopman_apply(g, xi, p), xi), p))


def window_vector(n, p) -> StepFunction:
    """The unit vector (2n)^{-1/p} 1_{[-n, n]} in L^p; the radius n is an
    int or a Fraction."""
    n = Fraction(check_exact(n, "n"))
    if n <= 0:
        raise DomainError(f"window radius must be positive, got {n}")
    p = check_exponent(p)
    value = to_real(2 * n) ** (-1 / p)
    return StepFunction((-n, n), (value,))


# ---------------------------------------------------------------------------
# Window distortions in closed form
#
# Let g have nodes (x_0, y_0), ..., (x_k, y_k). On g[-n, n] = [A, B] the
# vector pi(g) xi_n is (2n)^{-1/p} (g^{-1})'^{1/p}, and g^{-1} has the
# constant slope s_j = (x_{j+1} - x_j) / (y_{j+1} - y_j) on [y_j, y_{j+1}]
# and slope 1 elsewhere. With O = [max(A, -n), min(B, n)], empty when
# A >= n or B <= -n, integrating piece by piece gives
#
#     2n ||pi(g) xi_n - xi_n||_p^p
#         = 4n - |O| - |g^{-1}(O)| + sum_j w_j |[y_j, y_{j+1}] cap O|,
#
# where w_j = |s_j^{1/p} - 1|^p. Once n >= N0 = max_i max(|x_i|, |y_i|),
# O holds every [y_j, y_{j+1}] and the first part is |y_0 - x_0| +
# |y_k - x_k|, so 2n d^p is the constant
#
#     K = |y_0 - x_0| + |y_k - x_k| + sum_j w_j (y_{j+1} - y_j).
#
# Only w_j depends on p. WindowMap.of takes each log s_j, piece length and
# the tails to reals once, so each p costs one exp and one power per piece.
#
# The window kernel runs as the Koopman operations do: on raw libmp values,
# with the libmp call and the rounding that each mpf expression makes, and
# every order decision on exact rationals is the sign of an integer
# cross-product (see plmap). evaluate_sorted is its only evaluator, and a
# cut builds no Fraction but the window's end -n and the values that
# evaluate_sorted returns.
#
# WindowMap is a NamedTuple rather than a dataclass: every CLI process
# imports this module, and a frozen dataclass takes about 1.5 ms to build.


def _meet(lo, hi, a, b):
    """The ends of [lo, hi] cap [a, b]; each end is a rational as an
    unreduced pair (num, den), den > 0."""
    if a[0] * lo[1] > lo[0] * a[1]:
        lo = a
    if b[0] * hi[1] < hi[0] * b[1]:
        hi = b
    return lo, hi


def _length(lo, hi):
    """hi - lo as an unreduced pair, for ends as `_meet` gives them."""
    return hi[0] * lo[1] - lo[0] * hi[1], lo[1] * hi[1]


class WindowMap(NamedTuple):
    """The data of one map g that its window distortions depend on: exact
    nodes, and the p-independent reals at the working precision, as raw
    libmp values (`mpf._mpf_`)."""

    xs: Tuple[Fraction, ...]
    ys: Tuple[Fraction, ...]
    slopes: Tuple[tuple, ...]         # s_j rounded to the working precision
    log_slopes: Tuple[tuple, ...]     # log s_j, with 10 guard bits
    lengths: Tuple[tuple, ...]        # y_{j+1} - y_j
    tails: tuple                      # |y_0 - x_0| + |y_k - x_k|
    n0: Fraction                      # 2n d^p is constant for n >= n0

    @staticmethod
    def of(g: PLHomeo) -> "WindowMap":
        xs, ys = zip(*g.nodes)
        prec = mpmath.mp.prec
        # g has the slope num/den on [x_j, x_{j+1}], so s_j = den/num,
        # rounded once
        slopes = tuple(
            from_rational(den, num, prec, ROUNDING) for num, den in _slope_pairs(g.nodes)[1:-1]
        )
        # mpf ** takes its logarithm with 10 extra bits, as mpmath.log does
        # under extraprec(10); so does this, and the weights in `row` keep
        # the digits of s ** (1 / p).
        log_slopes = tuple(mpf_log(s, prec + 10, ROUNDING) for s in slopes)
        # every length is an unreduced integer cross-product, rounded once
        yr = [y.as_integer_ratio() for y in ys]
        lengths = tuple(
            from_rational(*_length(y0, y1), prec, ROUNDING) for y0, y1 in zip(yr, yr[1:])
        )
        # the tails |y_0 - x_0| + |y_k - x_k| = |a|/b + |c|/d, and N0 the
        # largest |e|/f over the end nodes' coordinates
        x0, xk = xs[0].as_integer_ratio(), xs[-1].as_integer_ratio()
        (a, b), (c, d) = _length(x0, yr[0]), _length(xk, yr[-1])
        n0 = (0, 1)
        for e, f in (x0, xk, yr[0], yr[-1]):
            if abs(e) * n0[1] > n0[0] * f:
                n0 = (abs(e), f)
        return WindowMap(
            xs=xs,
            ys=ys,
            slopes=slopes,
            log_slopes=log_slopes,
            lengths=lengths,
            tails=from_rational(abs(a) * d + abs(c) * b, b * d, prec, ROUNDING),
            n0=Fraction(*n0),
        )

    def cut(self, n: Fraction):
        """How the window [-n, n], n > 0, meets the map, found by two
        bisections of the y_j whatever the number of pieces: None once the
        window holds every node (n >= N0), when 2n d^p is the constant K.
        Otherwise the triple (exact, full, partial): the exact part
        4n - |O| - |g^{-1}(O)| as a raw value, the range of the pieces
        [y_j, y_{j+1}] inside O, and a pair (j, raw length of the piece
        inside O) for each piece that O cuts short."""
        p, q = n.as_integer_ratio()
        u, v = self.n0.as_integer_ratio()
        if p * v >= u * q:
            return None
        xs, ys, prec = self.xs, self.ys, mpmath.mp.prec
        window = (-n, n)
        ends = (-p, q), (p, q)
        g_lo, g_hi = evaluate_sorted(xs, ys, window)
        lo, hi = _meet(g_lo.as_integer_ratio(), g_hi.as_integer_ratio(), *ends)
        (ln, ld), (hn, hd) = lo, hi
        if ln * hd >= hn * ld:
            return from_rational(4 * p, q, prec, ROUNDING), range(0), ()
        inv_lo, inv_hi = evaluate_sorted(ys, xs, window)
        # 4n - |O| - |g^{-1}(O)|, where g^{-1}(O) = [-n, n] cap g^{-1}[-n, n]
        (s, t), (e, f) = _length(lo, hi), _length(
            *_meet(inv_lo.as_integer_ratio(), inv_hi.as_integer_ratio(), *ends)
        )
        exact = from_rational((4 * p * t - s * q) * f - e * q * t, q * t * f, prec, ROUNDING)
        # the pieces [y_j, y_{j+1}] inside O are those with a <= j < b; only
        # piece a - 1, which holds lo, and piece b, which holds hi, can be
        # cut short, and they may be one piece
        a = bisect_left(ys, True, key=lambda y: y.numerator * ld >= ln * y.denominator)
        b = bisect_right(ys, False, key=lambda y: y.numerator * hd > hn * y.denominator) - 1
        cut_short = []
        if 0 < a < len(ys) and ln * ys[a].denominator < ys[a].numerator * ld:
            cut_short.append(a - 1)
        if 0 <= b < len(ys) - 1 and ys[b].numerator * hd < hn * ys[b].denominator and b != a - 1:
            cut_short.append(b)
        partial = []
        for j in cut_short:
            y0, y1 = ys[j].as_integer_ratio(), ys[j + 1].as_integer_ratio()
            length = _length(*_meet(y0, y1, lo, hi))
            partial.append((j, from_rational(*length, prec, ROUNDING)))
        return exact, range(a, b), tuple(partial)

    def row(self, p, cuts) -> tuple:
        """2n ||pi(g) xi_n - xi_n||_p^p at exponent p for the window of each
        cut, as raw libmp values. The arithmetic runs with the operations
        and the rounding of the mpf expressions |s^{1/p} - 1|^p,
        w_j (y_{j+1} - y_j), K = tails + fsum(masses) and the cut's exact
        part plus its pieces, so it gives their bits. p is a real that
        check_exponent returned, with p >= 2 as a report takes it."""
        prec, q = mpmath.mp.prec, p._mpf_
        r = mpf_rdiv_int(1, q, prec, ROUNDING)  # 1 / p
        if r == fhalf:  # mpf ** takes a square root, and no logarithm
            roots = [mpf_sqrt(s, prec, ROUNDING) for s in self.slopes]
        else:
            # r log s_j is exact, as mpmath.fmul(..., exact=True)
            roots = [mpf_exp(mpf_mul(r, c), prec, ROUNDING) for c in self.log_slopes]
        # mpf_pow takes the integer power that mpf ** p takes when p is an
        # integer
        weights = [
            mpf_pow(mpf_abs(mpf_sub(x, fone, prec, ROUNDING)), q, prec, ROUNDING) for x in roots
        ]
        masses = [mpf_mul(w, length, prec, ROUNDING) for w, length in zip(weights, self.lengths)]
        # mpf_sum is the exact sum, rounded once, that mpmath.fsum takes
        constant = mpf_add(self.tails, mpf_sum(masses, prec, ROUNDING), prec, ROUNDING)
        out = []
        for cut in cuts:
            if cut is None:
                out.append(constant)
                continue
            # Summed piece by piece rather than as a difference of prefix
            # sums: at large p the weights span hundreds of orders of
            # magnitude, and heavy pieces outside O would cancel the light
            # ones inside.
            total, full, partial = cut
            for j in full:
                total = mpf_add(total, masses[j], prec, ROUNDING)
            for j, length in partial:
                total = mpf_add(total, mpf_mul(weights[j], length, prec, ROUNDING), prec, ROUNDING)
            out.append(total)
        return tuple(out)


def window_powers(g: PLHomeo, ns, ps) -> tuple:
    """One row per exponent p in ps, each with g's raw 2n d^p for every
    window [-n, n], n in ns. Each p is a real that check_exponent returned.

    g keeps the rows of its latest report in the attribute `_window`, which
    is no dataclass field: equality, hashing and repr ignore it. The record
    is the pair (key, rows), with the key the working precision, the radii
    n as integer pairs n.as_integer_ratio() and the exponents p as raw
    values p._mpf_. A report with the same key reads the rows and builds
    nothing; any other builds g's WindowMap, every cut and every row again,
    and replaces the record. Only the rows are kept, one real per window
    and exponent: a map of 40 nodes reported on at 13 windows and 3
    exponents keeps 39 reals, where its WindowMap and per-exponent weights
    and masses would hold 351."""
    key = (mpmath.mp.prec, tuple(n.as_integer_ratio() for n in ns), tuple(p._mpf_ for p in ps))
    record = g.__dict__.get("_window")
    if record is not None and record[0] == key:
        return record[1]
    window = WindowMap.of(g)
    cuts = [window.cut(n) for n in ns]
    rows = tuple(window.row(p, cuts) for p in ps)
    object.__setattr__(g, "_window", (key, rows))  # g is frozen
    return rows


def mazur_map(xi: StepFunction, q, p) -> StepFunction:
    """Per-piece signed power v -> sign(v) |v|^{q/p}; maps the unit sphere
    of L^q onto the unit sphere of L^p."""
    q = check_exponent(q, "q")
    prec, make = mpmath.mp.prec, mpmath.mp.make_mpf
    r = mpf_div(q._mpf_, check_exponent(p)._mpf_, prec, ROUNDING)
    out = []
    for v in xi.values:
        v = v._mpf_
        if v == fzero:
            out.append(_ZERO)
        else:
            power = mpf_pow(mpf_abs(v, prec, ROUNDING), r, prec, ROUNDING)
            # sign(v) |v|^r: a product with +-1 that changes no bit
            out.append(make(mpf_neg(power, prec, ROUNDING) if v[0] else power))
    return StepFunction._trusted(xi.breakpoints, tuple(out))


def normalize(xi: StepFunction, p) -> StepFunction:
    """Rescale to unit L^p norm."""
    norm = _lp_norm(xi, check_exponent(p))
    if norm == fzero:
        raise DomainError("cannot normalize the zero function")
    prec, make = mpmath.mp.prec, mpmath.mp.make_mpf
    c = mpf_rdiv_int(1, norm, prec, ROUNDING)
    # mpf arithmetic never overflows, so every product is finite
    return StepFunction._trusted(
        xi.breakpoints, tuple(make(mpf_mul(v._mpf_, c, prec, ROUNDING)) for v in xi.values)
    )
