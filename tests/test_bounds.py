import collections
import collections.abc
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from kazhlip import (
    DomainError,
    GeneratorSet,
    PLHomeo,
    bound_report,
    corollary_bound,
    estimate_lp,
    estimate_p2,
    kappa_max,
    kappa_transfer,
    koopman_distortion,
    log_power_bound_check,
    phi,
    phi_crossover,
    phi_inv,
    precision,
    theorem_check,
    window_vector,
)
import oracles
from kazhlip import bounds, koopman, plmap
from kazhlip.bounds import default_n_schedule, default_p_list
from kazhlip.precision import to_real

T1 = PLHomeo.translation(1)
BUMP = PLHomeo.from_pairs([(0, 0), (1, 2), (3, 3)])
STEEP = PLHomeo.from_pairs([(0, 0), (1, 16)])  # Lip 16
BUMP_T = GeneratorSet(
    "bump-translation",
    (("a", PLHomeo.from_pairs([(0, 0), (1, F(3, 2)), (2, 2)])), ("t", T1)),
)
GOLDEN_BOUND = Path(__file__).parent / "golden" / "bound"


def sym(name, *elems):
    pairs = []
    for i, g in enumerate(elems):
        pairs.append((f"g{i}", g))
        pairs.append((f"g{i}inv", g.invert()))
    return GeneratorSet(name, tuple(pairs), symmetric=True)


class TestPhi:
    def test_at_zero(self):
        assert phi(0) == 1

    def test_exponential_branch_dominates(self):
        assert abs(phi(1) - mpmath.e**2) == 0
        assert mpmath.e**2 > 4  # the other branch at t=1

    def test_rational_branch_dominates(self):
        t = mpf("1.3")
        rational = 4 / (2 - t * t) ** 2
        assert phi(t) == rational
        assert rational > mpmath.e ** (2 * t)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi(-0.1)
        with pytest.raises(DomainError):
            phi(1.42)

    def test_strictly_increasing_on_grid(self):
        grid = [mpf("1.41") * k / 300 for k in range(301)]
        vals = [phi(t) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestPhiInv:
    def test_at_one(self):
        assert phi_inv(1) == 0

    def test_sqrt_branch_at_16(self):
        expected = mpmath.sqrt(2) * mpmath.sqrt(mpf(3) / 4)
        assert abs(phi_inv(16) - expected) <= mpf("1e-25")

    def test_log_branch_at_2(self):
        assert abs(phi_inv(2) - mpmath.log(2) / 2) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_inv(0.5)

    def test_rejects_non_finite(self):
        for t in (float("nan"), float("inf"), float("-inf")):
            for f in (phi, phi_inv):
                with pytest.raises(DomainError):
                    f(t)

    def test_round_trip(self):
        for k in range(1000):
            t = 1 + mpf(9999) * k / 999
            assert abs(phi(phi_inv(t)) - t) <= mpf("1e-10") * t
        for k in range(1000):
            t = mpf("1.41") * k / 999
            assert abs(phi_inv(phi(t)) - t) <= mpf("1e-10")

    def test_values_below_sqrt2(self):
        for t in (1, 2, 100, 1e6):
            assert 0 <= phi_inv(t) < kappa_max()


class TestCrossover:
    def float_bisection_oracle(self):
        # independent oracle: bisect e^{2t} (2 - t^2)^2 - 4 in plain floats
        import math

        def h(t):
            return math.exp(2 * t) * (2 - t * t) ** 2 - 4

        lo, hi = 1.0, 1.3
        for _ in range(200):
            mid = (lo + hi) / 2
            if h(mid) > 0:  # h decreases on [1, 1.3]
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def test_against_float_oracle(self):
        assert abs(phi_crossover() - self.float_bisection_oracle()) < mpf("1e-10")

    def test_value_and_branches(self):
        tstar = phi_crossover()
        assert abs(float(tstar) - 1.176) < 1e-3
        assert abs(phi(tstar) - mpmath.e ** (2 * tstar)) < mpf("1e-9")
        # branch ordering flips at tstar
        below, above = tstar - mpf("0.05"), tstar + mpf("0.05")
        assert mpmath.e ** (2 * below) > 4 / (2 - below**2) ** 2
        assert mpmath.e ** (2 * above) < 4 / (2 - above**2) ** 2

    def test_stable_across_precision(self):
        with precision(30):
            a = phi_crossover()
        with precision(50):
            b = phi_crossover()
        assert abs(a - b) <= mpf("1e-10")

    def test_full_working_precision(self):
        def gap(t):
            return 2 * t - mpmath.log(4) + 2 * mpmath.log(2 - t * t)

        with precision(80):
            want = mpmath.findroot(gap, mpf("1.18"))
        with precision(50):
            assert abs(phi_crossover() - want) <= mpf("1e-45")

    def test_phi_inv_branch_switch(self):
        # the min branch of phi_inv switches exactly at phi(tstar)
        switch = phi(phi_crossover())
        lo, hi = switch - mpf("0.1"), switch + mpf("0.1")
        assert phi_inv(lo) == mpmath.log(lo) / 2
        assert phi_inv(hi) == mpmath.sqrt(2) * mpmath.sqrt(1 - hi ** mpf("-0.5"))


class TestKappaTransfer:
    def test_p2_is_identity_factor(self):
        assert kappa_transfer(2, mpf("0.37")) == mpf("0.37")

    def test_p4(self):
        assert abs(kappa_transfer(4, mpf("0.1")) - mpf("0.2")) <= mpf("1e-25")

    def test_zero_distortion(self):
        assert kappa_transfer(16, 0) == 0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            kappa_transfer(1.5, 0.1)
        with pytest.raises(DomainError):
            kappa_transfer(4, -0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                kappa_transfer(bad, 0.1)
            with pytest.raises(DomainError):
                kappa_transfer(4, bad)


class TestLogPowerBound:
    def test_x_equal_one(self):
        ok, slack = log_power_bound_check(1, 5, 2)
        assert ok and slack == mpmath.log(2) / (5 - mpmath.log(2))

    def test_x_e_L_e(self):
        ok, slack = log_power_bound_check(mpmath.e, 2, mpmath.e)
        assert ok
        assert abs(slack - (1 - (mpmath.sqrt(mpmath.e) - 1))) <= mpf("1e-20")

    def test_x_at_lower_edge(self):
        ok, slack = log_power_bound_check(mpf(1) / 4, 10, 4)
        expected = mpmath.log(4) / (10 - mpmath.log(4)) - (1 - 4 ** mpf("-0.1"))
        assert ok and abs(slack - expected) <= mpf("1e-20")

    def test_preconditions(self):
        with pytest.raises(DomainError):
            log_power_bound_check(1, 5, 1)
        with pytest.raises(DomainError):
            log_power_bound_check(3, 5, 2)
        with pytest.raises(DomainError):
            log_power_bound_check(1, 0.5, 2)

    def test_random_triples(self):
        rng = random.Random(31)
        for _ in range(500):
            L = mpf(repr(rng.uniform(1.001, 1000)))
            x = 1 / L + mpf(repr(rng.random())) * (L - 1 / L)
            p = float(mpmath.log(L)) + rng.uniform(1e-6, 1000)
            ok, slack = log_power_bound_check(x, p, L)
            assert ok and slack >= 0


class TestEstimateP2:
    def test_translations_closed_form(self):
        S = sym("Z", T1)
        frag = estimate_p2(S, [1, 2, 4, 64])
        assert frag.hypothesis_ok
        assert frag.L == 1 and frag.M == 1
        for cell in frag.cells:
            assert abs(cell.distortion - 1 / mpmath.sqrt(int(cell.n))) <= mpf("1e-12")
        assert frag.analytic_bound == 0

    def test_identity_only_flagged(self):
        S = GeneratorSet("trivial", (("e", PLHomeo.identity()),))
        frag = estimate_p2(S, [1, 2])
        assert not frag.hypothesis_ok

    def test_proof_inequality_bump_pair(self):
        S = sym("bump", BUMP)
        frag = estimate_p2(S, default_n_schedule(S.max_displacement()))
        for cell in frag.cells:
            if cell.n_large_enough:
                assert cell.distortion**2 <= cell.proof_bound**2 + mpf("1e-20")
                assert cell.proof_bound >= frag.analytic_bound

    def test_empty_schedule(self):
        with pytest.raises(DomainError):
            estimate_p2(sym("Z", T1), [])


class TestEstimateLp:
    def test_p_must_exceed_log_L(self):
        S = sym("steep", STEEP)  # L = 16, log L ~ 2.77
        with pytest.raises(DomainError):
            estimate_lp(S, F(5, 2), [4])

    def test_p2_is_lemma41_on_every_path(self):
        """p alone picks the proof bound: at p = 2 it is Lemma 4.1's,
        whichever view asks for the cells."""
        schedule = default_n_schedule(BUMP_T.max_displacement())
        frag = estimate_lp(BUMP_T, 2, schedule)
        p2 = estimate_p2(BUMP_T, schedule)
        assert frag.cells == p2.cells == bound_report(BUMP_T, [2], schedule).sweep
        assert frag.analytic_bound == p2.analytic_bound

    def test_analytic_bound_at_twice_log_L(self):
        S = sym("steep", STEEP)
        logL = mpmath.log(16)
        frag = estimate_lp(S, 2 * logL, [32])
        assert abs(frag.analytic_bound - logL) <= mpf("1e-20")

    def test_analytic_bound_decreasing_to_half_log_L(self):
        S = sym("steep", STEEP)
        bounds = [estimate_lp(S, p, [32]).analytic_bound for p in (8, 16, 32, 64)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert all(b > mpmath.log(16) / 2 for b in bounds)

    def test_analytic_bound_zero_at_L_one(self):
        # p/2 times the log-power constant, which is 0 when log L = 0
        assert estimate_lp(sym("Z", T1), 4, [1, 2]).analytic_bound == 0

    @pytest.mark.parametrize("p", [F(5, 2), mpmath.log(16)], ids=["below", "equal"])
    def test_one_message_for_p_at_most_log_L(self, p):
        """The log-power constant owns the check p > log L: every caller
        raises its message."""
        S = sym("steep", STEEP)  # L = 16
        calls = (
            lambda: log_power_bound_check(1, p, 16),
            lambda: bound_report(S, [p], [4]),
            lambda: estimate_lp(S, p, [4]),
        )
        messages = set()
        for call in calls:
            with pytest.raises(DomainError) as exc:
                call()
            messages.add(str(exc.value))
        assert messages == {f"need p > log(L) = {mpmath.log(16)}, got p={bounds.to_real(p)}"}

    def test_translation_distortions_shrink(self):
        S = sym("Z", T1)
        frag = estimate_lp(S, 4, [2, 8, 32, 128])
        ds = [c.distortion for c in frag.cells]
        assert all(a > b for a, b in zip(ds, ds[1:]))


class TestTheoremCheck:
    def test_zero_always_consistent(self):
        assert theorem_check(sym("bump", BUMP), 0)

    def test_steep_candidates(self):
        S = sym("steep", STEEP)  # L = 16
        assert not theorem_check(S, 1.3)  # 1.3 > phi_inv(16) ~ 1.2247
        assert theorem_check(S, 1.2)

    def test_candidate_domain(self):
        with pytest.raises(DomainError):
            theorem_check(sym("bump", BUMP), 1.5)


class TestCorollaryBound:
    def test_singleton(self):
        assert corollary_bound(1) == 0

    def test_two(self):
        assert abs(corollary_bound(2) - mpmath.log(2) / 2) <= mpf("1e-12")

    def test_sixteen(self):
        expected = mpmath.sqrt(2) * mpmath.sqrt(mpf(3) / 4)
        assert abs(corollary_bound(16) - expected) <= mpf("1e-12")

    def test_branch_oracle(self):
        # evaluate both branches independently and take the min
        for size in (2, 3, 10, 16, 100):
            log_branch = mpmath.log(size) / 2
            sqrt_branch = mpmath.sqrt(2) * mpmath.sqrt(1 - size ** mpf("-0.5"))
            assert corollary_bound(size) == min(log_branch, sqrt_branch)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            corollary_bound(0)


class TestBoundReport:
    def test_full_report(self):
        S = sym("bump", BUMP)
        report = bound_report(S, p_list=[2, 8], n_schedule=[2, 4, 8])
        assert report.L == 2 and report.M == 1
        assert not report.hypothesis_ok  # the bump pair fixes (-inf,0] u [3,inf)
        assert len(report.sweep) == 6
        assert report.phi_inv_of_L == min(report.lemma41_bound, report.lemma43_bound)
        assert 0 <= report.phi_inv_of_L < kappa_max()
        assert report.headline <= report.phi_inv_of_L

    def test_csv_shape(self):
        S = sym("Z", T1)
        report = bound_report(S, p_list=[2], n_schedule=[1, 2])
        lines = report.to_csv().strip().splitlines()
        assert lines[0].split(",")[:4] == ["group_name", "label_hash", "p", "n"]
        assert len(lines) == 3

    def test_default_schedules(self):
        assert default_n_schedule(F(1, 2))[:3] == [1, 2, 4]
        assert default_n_schedule(F(3))[0] == 3
        assert default_p_list(mpmath.log(1)) == [2, 4, 8, 16, 32, 64]
        assert default_p_list(mpmath.log(2)) == [2, 4, 8, 16, 32, 64]
        assert default_p_list(mpmath.log(16)) == [4, 8, 16, 32, 64]

    def test_all_kappa_uppers_nonnegative(self):
        S = sym("bump", BUMP)
        report = bound_report(S)
        assert all(c.kappa_upper >= 0 for c in report.sweep)

    def test_sweep_matches_koopman_oracle(self):
        S = sym("mixed", BUMP, STEEP, PLHomeo.from_pairs([(-4, -3), (0, 2), (3, 3)]))
        report = bound_report(S, p_list=[4, 16, 64], n_schedule=[F(1, 2), 1, 3, 20, 64])
        for c in report.sweep:
            xi = window_vector(c.n, c.p)
            want = max(koopman_distortion(g, xi, c.p) for _, g in S.generators)
            assert abs(c.distortion - want) <= mpf("1e-20") * want

    @pytest.mark.parametrize(
        "S",
        [sym("bump", BUMP), GeneratorSet("bump-translation", (("a", BUMP), ("t", T1)))],
        ids=["bump-pair", "bump-translation"],
    )
    def test_cells_match_estimators(self, S):
        schedule = default_n_schedule(S.max_displacement())
        report = bound_report(S, p_list=[2, 4, 16], n_schedule=schedule)
        want = (
            estimate_p2(S, schedule).cells
            + estimate_lp(S, 4, schedule).cells
            + estimate_lp(S, 16, schedule).cells
        )
        assert report.sweep == want

    def test_repeated_reports_identical(self):
        S = sym("mixed", BUMP, STEEP)
        assert bound_report(S).to_json() == bound_report(S).to_json()


class TestHomothetyInvariance:
    """Conjugating every generator by x -> alpha x and dividing the schedule
    by alpha leaves each d_{p,n} unchanged. For alpha a power of 2 it
    scales every exact length, and so every rounded one, by a power of 2,
    so each cell keeps its bits; a cut that rounded a length it should not
    would change some."""

    @pytest.mark.parametrize("alpha", [2, 4, F(1, 2)], ids=str)
    def test_random_8x40_cells(self, alpha):
        S = GeneratorSet.from_json((GOLDEN_BOUND / "inputs" / "random_8x40.json").read_text())
        scaled = GeneratorSet(
            S.name, tuple((label, g.conjugate_by_homothety(alpha)) for label, g in S.generators)
        )
        schedule = default_n_schedule(S.max_displacement())
        want = bound_report(S, None, schedule).sweep
        got = bound_report(scaled, None, [n / alpha for n in schedule]).sweep

        def bits(cell):
            reals = (cell.p, cell.distortion, cell.kappa_upper, cell.proof_bound)
            return tuple(None if x is None else x._mpf_ for x in reals)

        assert len(got) == len(want) == 78
        assert [c.n for c in got] == [c.n / alpha for c in want]
        assert [bits(c) for c in got] == [bits(c) for c in want]


def counted(calls, name, f):
    """f, counting each call in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)

    return wrapper


def report_calls(monkeypatch, S, *args) -> collections.Counter:
    """The calls that bound_report(S, *args) makes to the window layer,
    evaluate_sorted, to_real, and exp and log."""
    calls = collections.Counter()
    window = koopman.WindowMap
    monkeypatch.setattr(window, "of", staticmethod(counted(calls, "of", window.of)))
    monkeypatch.setattr(window, "cut", counted(calls, "cut", window.cut))
    monkeypatch.setattr(window, "row", counted(calls, "row", window.row))
    # every module that calls a name imported it into its own namespace
    evaluate_sorted = counted(calls, "evaluate_sorted", plmap.evaluate_sorted)
    for module in (plmap, koopman):
        monkeypatch.setattr(module, "evaluate_sorted", evaluate_sorted)
    to_real, read_real = bounds.to_real, bounds.read_real
    for module in (bounds, koopman):
        monkeypatch.setattr(module, "to_real", counted(calls, "to_real", to_real))
        # a caller's real is read through read_real, one conversion each
        monkeypatch.setattr(module, "read_real", counted(calls, "to_real", read_real))
    # the window kernel's exp and log are libmp's, on raw values; every
    # other exp or log is mpmath's
    monkeypatch.setattr(koopman, "mpf_exp", counted(calls, "exp", koopman.mpf_exp))
    monkeypatch.setattr(koopman, "mpf_log", counted(calls, "log", koopman.mpf_log))
    monkeypatch.setattr(mpmath, "exp", counted(calls, "exp", mpmath.exp))
    monkeypatch.setattr(mpmath, "log", counted(calls, "log", mpmath.log))
    bound_report(S, *args)
    return calls


def spread_map(rng, pieces) -> PLHomeo:
    """A map with `pieces` pieces: nodes about 10 apart, each moved by at
    most 2, so Lip stays below 2 and every p >= 2 exceeds log L."""
    xs = [10 * i + F(rng.randint(0, 8), 4) for i in range(pieces + 1)]
    return PLHomeo(tuple((x, x + F(rng.randint(-8, 8), 4)) for x in xs))


def to_real_count(p_list) -> int:
    """The to_real calls of a report: per p, p itself, p again in
    check_exponent and, for p other than 2, M for the L^p proof bound; and
    L once. Each n, 2n and ratio (n - M)/n is one from_rational of
    integers."""
    return sum(2 + (p != 2) for p in p_list) + 1


def default_ps(S) -> list:
    """The exponents of a report on S that is given none."""
    return default_p_list(mpmath.log(to_real(S.max_lip())))


def spread_set(maps, pieces) -> GeneratorSet:
    """`maps` spread maps of `pieces` pieces each, drawn with the seed `maps`."""
    rng = random.Random(maps)
    return GeneratorSet("s", tuple((f"g{i}", spread_map(rng, pieces)) for i in range(maps)))


# (maps, pieces, p list, schedule) of the cost formulas
COST_SIZES = [
    (1, 3, [2], [1]),
    (2, 7, [3, 2], [F(1, 2), 4, 16]),
    (3, 12, [2, 4, F(5, 2)], [1, 2, 3, 5, 8]),
    (5, 20, [16, 2, 4, 8], [2**k for k in range(8)]),
    (8, 37, [2, 3, 4, 8, 16, 64], [2**k for k in range(13)]),
]

# the arithmetic operators of mpf, each side
MPF_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


class Reads(collections.abc.Sequence):
    """A sequence that counts every read of an element, also by iteration."""

    def __init__(self, items, reads):
        self.items, self.reads = items, reads

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads["read"] += 1
        return self.items[i]


class TestOperationBudget:
    """What one `bound` report costs, counted in calls, so that a change
    doing more work fails on any machine."""

    def test_random_8x40_report(self, monkeypatch):
        S = GeneratorSet.from_json((GOLDEN_BOUND / "inputs" / "random_8x40.json").read_text())
        formula = to_real_count(default_ps(S))
        calls = report_calls(monkeypatch, S)
        to_reals = calls.pop("to_real")
        assert calls == {
            "of": 8, "cut": 104, "row": 48, "evaluate_sorted": 112, "exp": 1560, "log": 313,
        }
        assert to_reals <= 18
        assert to_reals == formula

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="fractions compares its values differently in other versions",
    )
    def test_random_8x40_fraction_comparisons(self, monkeypatch):
        # the window kernel, the global fixed set's intersection and the
        # test of n > M order on integers; what is left is the max that
        # lipschitz_data takes for L and M (14), the check n <= 0 of each
        # schedule entry (13), and one comparison in default_n_schedule; the
        # default p list reads log L, with no comparison of L
        S = GeneratorSet.from_json((GOLDEN_BOUND / "inputs" / "random_8x40.json").read_text())
        calls = collections.Counter()
        for name in ("_richcmp", "__eq__"):
            monkeypatch.setattr(F, name, counted(calls, "compare", getattr(F, name)))
        bound_report(S)
        assert calls["compare"] <= 28

    @pytest.mark.parametrize("maps,pieces,p_list,schedule", COST_SIZES)
    def test_costs_as_formulas(self, monkeypatch, maps, pieces, p_list, schedule):
        # one WindowMap per map, one row per (map, p) and one cut per
        # (map, n); an exp per piece and p other than 2, a log per piece and
        # one log L per report
        S = spread_set(maps, pieces)
        total = sum(len(g.nodes) - 1 for _, g in S.generators)
        # the cut of a window n < N0(g) evaluates g at -n and n, and g^{-1}
        # too when the window meets its image; from N0 on it evaluates none
        evaluations = 0
        for _, g in S.generators:
            n0 = max(abs(v) for node in g.nodes for v in node)
            for n in schedule:
                if n < n0:
                    evaluations += 2 if max(g(-n), -n) < min(g(n), n) else 1
        calls = report_calls(monkeypatch, S, p_list, schedule)
        assert calls["of"] == maps
        assert calls["row"] == maps * len(p_list)
        assert calls["cut"] == maps * len(schedule)
        assert calls["evaluate_sorted"] == evaluations
        assert calls["exp"] == total * sum(p != 2 for p in p_list)
        assert calls["log"] == total + 1
        assert calls["to_real"] == to_real_count(p_list)

    @pytest.mark.parametrize("maps,pieces,p_list,schedule", COST_SIZES)
    def test_warm_report_makes_no_mpf_arithmetic(self, monkeypatch, maps, pieces, p_list, schedule):
        # the report's reals run on raw values and make one mpf per output
        # value, so a report that reads its window data from the maps calls
        # no mpf operator, in any cell or anywhere else
        S = spread_set(maps, pieces)
        bound_report(S, p_list, schedule)
        calls = collections.Counter()
        for name in MPF_OPERATORS:
            monkeypatch.setattr(mpf, name, counted(calls, name, getattr(mpf, name)))
        assert mpf(1) + 1 == 2 and calls == {"__add__": 1}
        calls.clear()
        report = bound_report(S, p_list, schedule)
        assert len(report.sweep) == len(p_list) * len(schedule)
        assert calls == {}

    @pytest.mark.parametrize("k", [10, 100, 10_000])
    def test_cold_cut_reads_logarithmic(self, k):
        # every read of a node coordinate during one cut: evaluate_sorted's
        # steps and bisections and the cut's two bisections of the y_j. The
        # nodes lie on both sides of 0, so both ends of each window fall
        # among them, and a scan over the pieces would read thousands at
        # k = 10,000.
        g = spread_map(random.Random(k), k)
        g = PLHomeo(tuple((x - 5 * k, y - 5 * k) for x, y in g.nodes))
        wm = koopman.WindowMap.of(g)
        reads = collections.Counter()
        reading = wm._replace(xs=Reads(wm.xs, reads), ys=Reads(wm.ys, reads))
        for share in (F(1, 3), F(1, 2), F(9, 10)):
            n = wm.n0 * share
            reads.clear()
            cut = reading.cut(n)
            assert cut == wm.cut(n) and cut is not None and len(cut[1]) > k // 10
            assert 0 < reads["read"] <= 20 * math.log2(k), reads


def random_8x40() -> GeneratorSet:
    """The golden 8x40 set, on maps that hold no window data yet."""
    return GeneratorSet.from_json((GOLDEN_BOUND / "inputs" / "random_8x40.json").read_text())


def report_bits(report) -> list:
    """The raw values of a report's reals: its cells and its bounds."""
    cells = [
        tuple(None if x is None else x._mpf_ for x in (c.p, c.distortion, c.kappa_upper, c.proof_bound))
        for c in report.sweep
    ]
    bounds_ = (report.lemma41_bound, report.lemma43_bound, report.phi_inv_of_L, report.headline)
    return cells + [tuple(x._mpf_ for x in bounds_)]


class TestWindowRecord:
    """Each map keeps the window data of its latest report at the working
    precision, so a report that repeats it builds no window data; every
    report-level step still runs."""

    def test_repeated_report_builds_nothing(self, monkeypatch):
        S = random_8x40()
        cold = bound_report(S)
        to_reals = to_real_count(default_ps(S))
        kernel = collections.Counter()
        for name in ("mpf_exp", "mpf_log"):
            monkeypatch.setattr(koopman, name, counted(kernel, name, getattr(koopman, name)))
        calls = report_calls(monkeypatch, S)
        assert kernel == {}
        # log L once, for the default p list, every proof bound and
        # phi_inv(L), and the to_real calls of a cold report
        assert calls == {"log": 1, "to_real": to_reals}
        assert report_bits(bound_report(S)) == report_bits(cold)

    @pytest.mark.parametrize("digits", [15, 30, 50])
    def test_warm_equals_cold(self, digits):
        with precision(digits):
            S = random_8x40()
            cold, warm = bound_report(S, [2, 3, 64]), bound_report(S, [2, 3, 64])
            assert report_bits(warm) == report_bits(cold)
            assert warm.to_json() == cold.to_json()

    def test_precision_change(self):
        S = random_8x40()
        at_30 = report_bits(bound_report(S))
        with precision(50):
            assert report_bits(bound_report(S)) == report_bits(bound_report(random_8x40()))
        with precision(15):
            assert report_bits(bound_report(S)) == report_bits(bound_report(random_8x40()))
        assert report_bits(bound_report(S)) == at_30

    def test_new_exponents_and_radii(self):
        # a report with other exponents or another schedule than the
        # record's builds its own data, with the bits of fresh maps
        rng = random.Random(5)
        S = GeneratorSet("s", tuple((f"g{i}", spread_map(rng, 9)) for i in range(3)))
        for p_list, schedule in (([2, 4], [1, 8, 40]), ([4, 16], [1, 8, 40]), ([4, 16], [1, 8, 40, 50])):
            fresh = GeneratorSet("s", tuple((k, PLHomeo(g.nodes)) for k, g in S.generators))
            got = report_bits(bound_report(S, p_list, schedule))
            assert got == report_bits(bound_report(fresh, p_list, schedule))

    def test_record_holds_one_report(self, monkeypatch):
        rng = random.Random(6)
        maps = [spread_map(rng, 7) for _ in range(3)]
        S = GeneratorSet("s", tuple((f"g{i}", g) for i, g in enumerate(maps)))
        schedule = [1, 4, 16, 64]
        calls = collections.Counter()
        monkeypatch.setattr(koopman.WindowMap, "row", counted(calls, "row", koopman.WindowMap.row))
        for i in range(200):
            bound_report(S, [2 + F(i, 8)], schedule)
        assert calls["row"] == 200 * len(maps)
        p_last = to_real(2 + F(199, 8))
        for g in maps:
            (prec, radii, exponents), rows = g._window
            assert prec == mpmath.mp.prec
            assert radii == tuple((n, 1) for n in schedule)
            assert exponents == (p_last._mpf_,)
            assert len(rows) == 1 and len(rows[0]) == len(schedule)

    def test_equality_ignores_the_record(self):
        S, fresh = random_8x40(), random_8x40()
        bound_report(S)
        for (_, g), (_, h) in zip(S.generators, fresh.generators):
            assert "_window" in vars(g) and "_window" not in vars(h)
            assert g == h and hash(g) == hash(h) and repr(g) == repr(h)


class TestReportRealsOracle:
    """The proof bounds, transfers, phi_inv branches and headline of a
    report against their mpf expressions in tests/oracles.py, bit for bit.
    Each set has L < e^2, so every exponent here exceeds log L, and a
    schedule with cells on both sides of n = M."""

    SETS = [
        BUMP_T,
        GeneratorSet("steep-translation", (("s", PLHomeo.from_pairs([(0, 0), (1, 7), (2, 8)])), ("t", T1))),
        spread_set(3, 12),
    ]

    @pytest.mark.parametrize("digits", [15, 30, 50])
    @pytest.mark.parametrize("S", SETS, ids=["bump-translation", "steep-translation", "spread"])
    def test_bits(self, S, digits):
        p_list = [2, 2.1, 2.5, 3, 7, 16, 64]
        L, M = S.max_lip(), S.max_displacement()
        schedule = [M / 3, M, M + F(1, 7), 3 * M, F(1000, 7) * M]
        with precision(digits):
            report = bound_report(S, p_list, schedule)
            for c in report.sweep:
                assert c.kappa_upper._mpf_ == oracles.transfer(c.p, c.distortion)._mpf_
                assert kappa_transfer(c.p, c.distortion)._mpf_ == c.kappa_upper._mpf_
                if c.n <= M:
                    assert c.proof_bound is None
                    continue
                if c.p == 2:
                    want = oracles.lemma41_proof_bound(c.n, L, M)
                else:
                    want = oracles.lp_proof_bound(c.n, c.p, L, M)
                assert c.proof_bound._mpf_ == want._mpf_
            log_branch, sqrt_branch = oracles.phi_inv_branches(to_real(L))
            assert report.lemma43_bound._mpf_ == log_branch._mpf_
            assert report.lemma41_bound._mpf_ == sqrt_branch._mpf_
            assert report.phi_inv_of_L._mpf_ == min(log_branch, sqrt_branch)._mpf_
            assert report.headline._mpf_ == oracles.headline(L, report.sweep)._mpf_
            assert [x._mpf_ for x in bounds.phi_inv_branches(to_real(L))] == [
                log_branch._mpf_, sqrt_branch._mpf_
            ]
        assert sum(c.proof_bound is None for c in report.sweep) == 2 * len(p_list)
