"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured margin (run with `pytest -s tests/test_acceptance.py`
to see them)."""

import time
from fractions import Fraction as F

import mpmath
from mpmath import mpf

from kazhlip import (
    GeneratorSet,
    PLHomeo,
    Word,
    bound_report,
    corollary_bound,
    estimate_lp,
    estimate_p2,
    global_fixed_set,
    koopman_distortion,
    limit_translation_diagnostic,
    normalize_stage,
    phi,
    phi_crossover,
    phi_inv,
    precision,
    window_vector,
)
from kazhlip.figures import phi_branch_table, phi_inv_branch_table
from kazhlip.koopman import lp_norm, mazur_map, normalize, subtract
from kazhlip.limits import ActionSequence
from kazhlip.verify import (
    suite_group_axioms,
    suite_homothety,
    suite_koopman,
    suite_lemmas,
    suite_mazur,
)

BUMP = PLHomeo.from_pairs([(0, 0), (1, 2), (3, 3)])  # slopes {2, 1/2}
BUMP_PAIR = GeneratorSet(
    "bump-pair", (("b", BUMP), ("B", BUMP.invert())), symmetric=True
)


def report(num, desc, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: PASS - {desc}{suffix}")


def test_criterion_01_group_axioms():
    start = time.time()
    results = suite_group_axioms(1000)
    elapsed = time.time() - start
    assert all(fails == 0 for _, _, fails, _ in results)
    assert elapsed < 5.0
    report(1, "group axioms exact on 1000 random triples", f"{elapsed:.2f}s")


def test_criterion_02_homothety_conjugation():
    results = suite_homothety(1000)
    assert all(fails == 0 for _, _, fails, _ in results)
    report(2, "homothety conjugation: Lip exact, displacement scaled by 1/alpha")


def test_criterion_03_koopman_isometry_and_homomorphism():
    results = suite_koopman(1000)
    by_name = {name: (fails, worst) for name, _, fails, worst in results}
    fails, worst_iso = by_name["L^p isometry (relative 1e-12)"]
    assert fails == 0
    fails, worst_hom = by_name["homomorphism (piecewise 1e-12)"]
    assert fails == 0
    report(
        3,
        "Koopman isometry/homomorphism within 1e-12 on 1000 cases each",
        f"worst slacks {worst_iso:.2e}, {worst_hom:.2e}",
    )


def test_criterion_04_translation_closed_form():
    t = PLHomeo.translation(1)
    worst = mpf(0)
    n = 1
    while n <= 4096:
        d = koopman_distortion(t, window_vector(n, 2), 2)
        # oracle: ||pi(t_c) xi_n - xi_n||^2 = 2 - 2 (2n - c)/(2n) = c/n
        dev = abs(d - 1 / mpmath.sqrt(n))
        worst = max(worst, dev)
        n *= 2
    assert worst <= mpf("1e-12")
    report(4, "translation distortion equals n^(-1/2) for n = 1..4096",
           f"worst deviation {mpmath.nstr(worst, 3)}")


def test_criterion_05_lemma_p2_proof_inequality():
    start = time.time()
    M = BUMP_PAIR.max_displacement()
    assert BUMP_PAIR.max_lip() == 2 and M == 1
    schedule = [F(2) ** k * M for k in range(0, 13)]  # up to 4096 M
    frag = estimate_p2(BUMP_PAIR, schedule)
    large = [c for c in frag.cells if c.n_large_enough]
    assert large, "schedule must contain entries with n > M"
    for c in large:
        # d_n^2 <= 2 - 2 ((n - M)/n) L^{-1/2}
        assert c.distortion**2 <= c.proof_bound**2 + mpf("1e-20")
    # the per-n certified bound sequence approaches the analytic limit
    # monotonically from above once n >= 64 M
    tail = [c.proof_bound for c in large if c.n >= 64 * M]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    assert min(c.proof_bound for c in large) >= frag.analytic_bound - mpf("1e-3")
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(5, "L^2 window estimator satisfies the proof inequality",
           f"{elapsed:.2f}s, analytic bound {mpmath.nstr(frag.analytic_bound, 6)}")


def test_criterion_06_lemma_lp_proof_inequality():
    M = BUMP_PAIR.max_displacement()
    L = BUMP_PAIR.max_lip()
    logL = mpmath.log(int(L))
    schedule = [F(2) ** k * M for k in range(0, 13)]
    final_kappas = {}
    for p in (8, 16, 32, 64):
        frag = estimate_lp(BUMP_PAIR, p, schedule)
        kappas = []
        for c in frag.cells:
            if not c.n_large_enough:
                continue
            nr, Mr = mpf(int(c.n)), mpf(int(M))
            rhs = 4 * Mr * int(L) / (2 * nr) + (nr + Mr) / nr * (
                logL / (p - logL)
            ) ** p
            assert c.distortion**p <= rhs + mpf("1e-10")
            kappas.append(c.kappa_upper)
        # transferred bounds decrease along the n schedule
        assert all(a > b for a, b in zip(kappas, kappas[1:]))
        final_kappas[p] = kappas[-1]
    target = logL / 2
    assert abs(final_kappas[64] - target) <= mpf("0.05")
    report(6, "L^p window estimator satisfies the proof inequality",
           f"kappa(64, 4096M) = {mpmath.nstr(final_kappas[64], 5)} vs "
           f"(1/2) log L = {mpmath.nstr(target, 5)}")


def test_criterion_07_log_power_inequality():
    ((_, cases, fails, worst),) = suite_lemmas(10000)
    assert cases == 10000 and fails == 0
    report(7, "log-power inequality slack >= 0 on 10^4 random triples",
           f"worst slack {worst:.3e}")


def test_criterion_08_mazur_lower_bound():
    results = suite_mazur(1000)
    by_name = {name: (fails, worst) for name, _, fails, worst in results}
    fails, worst = by_name["Mazur lower bound (q/p)||xi-eta||_q"]
    assert fails == 0
    report(8, "Mazur lower bound on 1000 random unit pairs",
           f"worst slack {worst:.3e}")


def test_criterion_09_phi_calculus():
    # round trips on 1000-point grids
    for k in range(1000):
        t = 1 + mpf(9999) * k / 999
        assert abs(phi(phi_inv(t)) - t) <= mpf("1e-10") * t
    for k in range(1000):
        t = mpf("1.41") * k / 999
        assert abs(phi_inv(phi(t)) - t) <= mpf("1e-10")
    assert phi(0) == 1 and phi_inv(1) == 0
    # crossover stable across precisions
    with precision(30):
        t30 = phi_crossover()
    with precision(50):
        t50 = phi_crossover()
    assert abs(t30 - t50) <= mpf("1e-10")
    tstar = phi_crossover()
    switch = phi(tstar)
    # emitted branch tables reproduce the figure orderings: the exponential
    # branch is the max before tstar, the rational branch after; the log
    # branch is the min of phi_inv before phi(tstar), the sqrt branch after
    for t, b_exp, b_rat, combined in phi_branch_table("0", "1.4", "0.01").rows:
        if t < tstar:
            assert combined == b_exp >= b_rat
        elif t > tstar + mpf("0.01"):
            assert combined == b_rat >= b_exp
    for t, b_log, b_sqrt, combined in phi_inv_branch_table(1, 23, "0.1").rows:
        if t < switch:
            assert combined == b_log <= b_sqrt
        elif t > switch + mpf("0.1"):
            assert combined == b_sqrt <= b_log
    report(9, "phi/phi_inv round trips, crossover stability, branch orderings",
           f"t* = {mpmath.nstr(tstar, 10)}")


def test_criterion_10_corollary_values():
    dev2 = abs(corollary_bound(2) - mpmath.log(2) / 2)
    dev16 = abs(corollary_bound(16) - mpmath.sqrt(2) * mpmath.sqrt(mpf(3) / 4))
    assert dev2 <= mpf("1e-12") and dev16 <= mpf("1e-12")
    report(10, "orderable-group corollary values at |S| = 2 and 16")


def test_criterion_11_limit_diagnostics():
    ns = [2**k for k in range(1, 13)]
    stages = tuple(
        GeneratorSet(f"s{n}", (("g", PLHomeo.from_pairs([(0, 1 + F(1, n)), (1, 2)])),))
        for n in ns
    )
    seq = ActionSequence(("g",), stages)
    for stage in stages:
        assert normalize_stage(stage).max_displacement() == 1
    g = Word((("g", 1),))
    words = [g, g.concat(g), g.concat(g).concat(g)]
    diag = limit_translation_diagnostic(seq, words, base=0, cauchy_tol=1e-3)
    assert [rec.max_lip for rec in diag.stages] == [F(n, n - 1) for n in ns]
    est = dict(diag.estimates)
    assert abs(est["g"] - 1) <= F(1, 1000)
    worst_defect = max(
        d.estimate_defect
        for d in diag.defects
        if len(Word.parse(d.left).concat(Word.parse(d.right))) <= 3
    )
    assert worst_defect <= F(1, 1000)
    report(11, "limit diagnostics: exact Lip trend, unit displacement, "
               "additivity defects",
           f"worst defect {float(worst_defect):.2e}")


def test_criterion_12_fixed_point_logic():
    bump_a = PLHomeo.from_pairs([(0, 0), (1, F(3, 2)), (2, 2)])
    bump_b = PLHomeo.from_pairs([(5, 5), (6, F(13, 2)), (7, 7)])
    S = GeneratorSet("bumps", (("a", bump_a), ("b", bump_b)))
    fixed = global_fixed_set(S)
    assert fixed.components == (
        (None, F(0)),
        (F(2), F(5)),
        (F(7), None),
    )
    rep = bound_report(S, p_list=[2], n_schedule=[8])
    assert not rep.hypothesis_ok
    S2 = GeneratorSet(
        "bumps+t", S.generators + (("t", PLHomeo.translation(1)),)
    )
    assert global_fixed_set(S2).is_empty
    rep2 = bound_report(S2, p_list=[2], n_schedule=[8])
    assert rep2.hypothesis_ok
    report(12, "fixed-point logic: exact interval union and hypothesis flag flip")
