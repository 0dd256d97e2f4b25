"""Seeded property suites runnable from the CLI (`verify`) and reused by
the test suite as data generators.

Each suite returns a list of (property name, cases run, failures, worst
slack) tuples; worst slack is the smallest margin by which an inequality
held (negative means a violation).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

import mpmath
from mpmath import mpf

from .bounds import log_power_bound_check
from .groupact import GeneratorSet, global_fixed_set
from .koopman import (
    StepFunction,
    koopman_apply,
    koopman_distortion,
    lp_norm,
    mazur_map,
    normalize,
    refine,
    subtract,
    window_vector,
)
from .plmap import PLHomeo, _drop_collinear, _slope_pairs
from .precision import to_real

DEFAULT_SEED = 20240811

SuiteResult = Tuple[str, int, int, Optional[float]]


# ---------------------------------------------------------------------------
# random generators


def random_rational(rng: random.Random, max_mag: int = 1000) -> Fraction:
    return Fraction(rng.randint(-max_mag, max_mag), rng.randint(1, max_mag))


def _distinct_rationals(
    rng: random.Random, count: int, max_mag: int, at_least: int
) -> List[Fraction]:
    """The distinct values of `count` draws of random_rational(rng,
    max_mag), topped up one draw at a time until there are `at_least` of
    them, in increasing order.

    Two different values with denominators at most m = max_mag differ by at
    least 1/m^2, so a * m^2 // b tells the draws a/b apart and orders them:
    the draws are keyed and sorted on ints, and one Fraction is built per
    value."""
    # rng.randint(a, b) is rng.randrange(a, b + 1): the same draws
    randrange, scale = rng.randrange, max_mag * max_mag
    drawn = {}
    while count > 0 or len(drawn) < at_least:
        count -= 1
        a, b = randrange(-max_mag, max_mag + 1), randrange(1, max_mag + 1)
        drawn.setdefault(a * scale // b, (a, b))
    return [Fraction(*drawn[key]) for key in sorted(drawn)]


def random_plhomeo(
    rng: random.Random, max_nodes: int = 8, max_mag: int = 1000
) -> PLHomeo:
    k = rng.randint(1, max_nodes)
    xs = _distinct_rationals(rng, k, max_mag, 1)
    ys = _distinct_rationals(rng, len(xs), max_mag, len(xs))
    # both coordinate lists increase strictly: only collinear nodes go
    nodes = tuple(zip(xs, ys))
    return PLHomeo._canonical(_drop_collinear(nodes, _slope_pairs(nodes)))


def random_step_function(
    rng: random.Random, max_pieces: int = 6, max_mag: int = 50
) -> StepFunction:
    k = rng.randint(1, max_pieces)
    bps = _distinct_rationals(rng, k + 1, max_mag, 2)
    values = []
    for _ in range(len(bps) - 1):
        v = rng.uniform(-5, 5)
        if abs(v) < 0.1:
            v = 0.5  # keep the function clearly nonzero
        values.append(mpf(repr(v)))
    # increasing distinct Fractions and finite values: valid as built
    return StepFunction._trusted(tuple(bps), tuple(values))


# ---------------------------------------------------------------------------
# suites


def _tally(name: str, slacks) -> SuiteResult:
    """A property's result from the slack of each case it ran."""
    failures = sum(1 for slack in slacks if not slack >= 0)
    return (name, len(slacks), failures, float(min(slacks, default=mpf("inf"))))


def suite_group_axioms(cases: int = 1000, seed: int = DEFAULT_SEED) -> List[SuiteResult]:
    rng = random.Random(seed)
    ident = PLHomeo.identity()
    fails_assoc = fails_inv = fails_ident = fails_lip = 0
    for _ in range(cases):
        f = random_plhomeo(rng)
        g = random_plhomeo(rng)
        h = random_plhomeo(rng)
        f_inv = f.invert()
        if (f.compose(g)).compose(h) != f.compose(g.compose(h)):
            fails_assoc += 1
        if f.compose(f_inv) != ident or f_inv.compose(f) != ident:
            fails_inv += 1
        if f.compose(ident) != f or ident.compose(f) != f:
            fails_ident += 1
        if f_inv.lip_constant() != f.lip_constant():
            fails_lip += 1
    return [
        ("associativity", cases, fails_assoc, None),
        ("inverse law", cases, fails_inv, None),
        ("identity law", cases, fails_ident, None),
        ("Lip(f^-1) = Lip(f)", cases, fails_lip, None),
    ]


def suite_homothety(cases: int = 1000, seed: int = DEFAULT_SEED) -> List[SuiteResult]:
    rng = random.Random(seed)
    fails_lip = fails_disp = 0
    for _ in range(cases):
        f = random_plhomeo(rng)
        alpha = abs(random_rational(rng, 100)) + Fraction(1, 100)
        conj = f.conjugate_by_homothety(alpha)
        if conj.lip_constant() != f.lip_constant():
            fails_lip += 1
        if conj.displacement() * alpha != f.displacement():
            fails_disp += 1
    return [
        ("conjugation preserves Lip", cases, fails_lip, None),
        ("conjugation scales displacement by 1/alpha", cases, fails_disp, None),
    ]


def suite_koopman(cases: int = 1000, seed: int = DEFAULT_SEED) -> List[SuiteResult]:
    rng = random.Random(seed)
    tol = mpf("1e-12")
    ps = [1, 2, 4, 16]
    iso = []
    for _ in range(cases):
        g = random_plhomeo(rng, max_nodes=5, max_mag=60)
        xi = random_step_function(rng)
        p = rng.choice(ps)
        n0 = lp_norm(xi, p)
        n1 = lp_norm(koopman_apply(g, xi, p), p)
        iso.append(tol * n0 - abs(n1 - n0))
    hom = []
    for _ in range(cases):
        f = random_plhomeo(rng, max_nodes=4, max_mag=40)
        g = random_plhomeo(rng, max_nodes=4, max_mag=40)
        xi = random_step_function(rng, max_pieces=4)
        p = rng.choice(ps)
        lhs = koopman_apply(f.compose(g), xi, p)
        rhs = koopman_apply(f, koopman_apply(g, xi, p), p)
        hom.append(tol - max(abs(u - v) for _, _, u, v in refine(lhs, rhs)))
    return [
        _tally("L^p isometry (relative 1e-12)", iso),
        _tally("homomorphism (piecewise 1e-12)", hom),
    ]


def suite_mazur(cases: int = 1000, seed: int = DEFAULT_SEED) -> List[SuiteResult]:
    rng = random.Random(seed)
    combos = [(2, 4), (2, 16), (1, 2)]
    tol = mpf("1e-12")
    bound, sphere = [], []
    for i in range(cases):
        q, p = combos[i % len(combos)]
        xi = normalize(random_step_function(rng), q)
        eta = normalize(random_step_function(rng), q)
        lhs = to_real(Fraction(q, p)) * lp_norm(subtract(xi, eta), q)
        m_xi = mazur_map(xi, q, p)
        rhs = lp_norm(subtract(m_xi, mazur_map(eta, q, p)), p)
        bound.append(rhs + tol - lhs)
        sphere.append(tol - abs(lp_norm(m_xi, p) - 1))
    return [
        _tally("Mazur lower bound (q/p)||xi-eta||_q", bound),
        _tally("Mazur maps unit sphere to unit sphere", sphere),
    ]


def suite_lemmas(cases: int = 10000, seed: int = DEFAULT_SEED) -> List[SuiteResult]:
    rng = random.Random(seed)
    slacks = []
    for _ in range(cases):
        L = mpf(repr(rng.uniform(1.0001, 1000.0)))
        x = mpf(repr(rng.uniform(0.0, 1.0))) * (L - 1 / L) + 1 / L
        logL = mpmath.log(L)
        p = mpf(repr(rng.uniform(0.0, 1.0))) * (1000 - float(logL)) + logL + mpf("1e-6")
        slacks.append(log_power_bound_check(x, p, L)[1])
    return [_tally("log-power inequality slack >= 0", slacks)]


def suite_escape(seed: int = DEFAULT_SEED) -> List[SuiteResult]:
    """Escape-of-mass mechanism: a generating set with empty global fixed
    set moves a compactly supported window off itself, and disjointly
    supported unit vectors are 2^{1/p} apart."""
    t = PLHomeo.translation(1)
    bump = PLHomeo.from_pairs([(0, 0), (1, Fraction(3, 2)), (2, 2)])
    S = GeneratorSet("escape", (("t", t), ("b", bump)))
    ok = global_fixed_set(S).is_empty
    slacks = []
    for p in (1, 2, 4):
        M = Fraction(2)
        xi = window_vector(M, p)
        # translation by 2M+1 moves [-M, M] off itself
        d = koopman_distortion(PLHomeo.translation(2 * M + 1), xi, p)
        slacks.append(d - (2 ** (1 / mpf(p))) + mpf("1e-12"))
    return [
        ("no global fixed point", 1, 0 if ok else 1, None),
        _tally("disjoint-support distortion = 2^(1/p)", slacks),
    ]

