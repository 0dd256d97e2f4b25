import collections
import random
import re
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from kazhlip import (
    DomainError,
    PLHomeo,
    StepFunction,
    koopman_apply,
    koopman_distortion,
    lp_norm,
    mazur_map,
    normalize,
    subtract,
    window_vector,
)
from kazhlip import koopman
from kazhlip.koopman import WindowMap, refine
from kazhlip.precision import precision, to_real
from kazhlip.verify import random_plhomeo, random_rational, random_step_function
import oracles
from oracles import indicator, inner_product, support, value_at

TOL = mpf("1e-12")
BUMP = PLHomeo.from_pairs([(0, 0), (1, 2), (3, 3)])


def brute_force_lp(xi, p, grid=10000):
    """Riemann-sum oracle on a uniform rational grid over the support."""
    a, b = support(xi)
    h = F(b - a, grid)
    total = mpf(0)
    for i in range(grid):
        x = a + h * i
        total += abs(value_at(xi, x)) ** mpf(p) * mpf(h.numerator) / mpf(h.denominator)
    return total ** (1 / mpf(p))


def assert_pointwise(g, xi, p, out):
    """(pi(g) xi)(x) = xi(g^{-1}(x)) (Dg^{-1}(x))^{1/p}, read at each
    output piece's midpoint through the inverse map."""
    ginv = g.invert()
    a, b = support(xi)
    assert support(out) == (g(a), g(b))
    for a, b, v in zip(out.breakpoints, out.breakpoints[1:], out.values):
        mid = (a + b) / 2
        assert v == value_at(xi, ginv(mid)) * to_real(ginv.slope_at(mid)) ** (1 / mpf(p))


class TestLpNorm:
    def test_unit_indicator(self):
        for p in (1, 2, 3.5, 16):
            assert abs(lp_norm(indicator(0, 1), p) - 1) <= TOL

    def test_window_is_unit(self):
        assert abs(lp_norm(window_vector(2, 2), 2) - 1) <= TOL

    def test_p4_example(self):
        xi = StepFunction((F(0), F(1), F(2)), (mpf(2), mpf(0)))
        assert abs(lp_norm(xi, 4) - 2) <= TOL

    def test_against_riemann_oracle(self):
        rng = random.Random(3)
        for _ in range(5):
            xi = random_step_function(rng, max_pieces=4, max_mag=10)
            p = rng.choice([1, 2, 4])
            # step functions are exactly integrable; the grid sum is exact
            # once the grid refines the breakpoints, so compare loosely
            assert abs(lp_norm(xi, p) - brute_force_lp(xi, p, 4096)) < mpf("0.1")

    def test_invalid_exponent(self):
        with pytest.raises(DomainError):
            lp_norm(indicator(0, 1), F(1, 2))


class TestInnerProduct:
    def test_disjoint_supports(self):
        assert inner_product(indicator(0, 1), indicator(2, 3)) == 0

    def test_self_inner_product_is_norm_squared(self):
        rng = random.Random(5)
        for _ in range(10):
            xi = random_step_function(rng)
            assert abs(inner_product(xi, xi) - lp_norm(xi, 2) ** 2) <= TOL

    def test_overlap_length(self):
        got = inner_product(indicator(0, 2), indicator(1, 3))
        assert abs(got - 1) <= TOL


class TestKoopmanApply:
    def test_translation_shifts(self):
        xi = indicator(0, 1, 3)
        out = koopman_apply(PLHomeo.translation(F(5, 2)), xi, 7)
        assert out.breakpoints == (F(5, 2), F(7, 2))
        assert out.values == (mpf(3),)

    def test_slope_weight(self):
        out = koopman_apply(BUMP, indicator(0, 1), 2)
        assert out.breakpoints == (F(0), F(2))
        assert abs(out.values[0] - 1 / mpmath.sqrt(2)) <= TOL

    def test_identity_acts_trivially(self):
        rng = random.Random(11)
        for _ in range(10):
            xi = random_step_function(rng)
            out = koopman_apply(PLHomeo.identity(), xi, 2)
            assert out.breakpoints == xi.breakpoints
            assert all(abs(u - v) == 0 for u, v in zip(out.values, xi.values))

    def test_matches_pointwise_definition(self):
        rng = random.Random(19)
        for _ in range(50):
            g = random_plhomeo(rng, max_nodes=5, max_mag=40)
            xi = random_step_function(rng)
            p = rng.choice([1, 2, 3, 16])
            assert_pointwise(g, xi, p, koopman_apply(g, xi, p))

    def test_isometry_random(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_plhomeo(rng, max_nodes=5, max_mag=40)
            xi = random_step_function(rng)
            p = rng.choice([1, 2, 4, 16])
            n0, n1 = lp_norm(xi, p), lp_norm(koopman_apply(g, xi, p), p)
            assert abs(n1 - n0) <= TOL * n0

    def test_homomorphism_random(self):
        rng = random.Random(17)
        for _ in range(30):
            f = random_plhomeo(rng, max_nodes=4, max_mag=30)
            g = random_plhomeo(rng, max_nodes=4, max_mag=30)
            xi = random_step_function(rng, max_pieces=4)
            p = rng.choice([1, 2, 4, 16])
            lhs = koopman_apply(f.compose(g), xi, p)
            rhs = koopman_apply(f, koopman_apply(g, xi, p), p)
            assert max(abs(u - v) for _, _, u, v in refine(lhs, rhs)) <= TOL

    # g's nodes against xi's breakpoints 0, 1, 3 and 5
    @pytest.mark.parametrize(
        "nodes",
        [
            [(0, 1), (2, 2)],  # a node on the first breakpoint
            [(F(1, 2), 0), (5, 7)],  # on the last
            [(F(1, 2), 1), (3, 2)],  # on an interior one
            [(-7, -5), (-4, -4), (-2, -1)],  # all left of the support
            [(6, 5), (8, 9), (10, 10)],  # all right of it
        ],
    )
    def test_nodes_at_the_breakpoints_and_outside(self, nodes):
        g = PLHomeo.from_pairs(nodes)
        xi = StepFunction((F(0), F(1), F(3), F(5)), (mpf(2), mpf(0), mpf(-3)))
        for p in (1, 2, 3, mpf("2.5")):
            want = oracles.koopman_apply(g, xi, p)
            got = koopman_apply(g, xi, p)
            assert got.breakpoints == want.breakpoints
            assert [v._mpf_ for v in got.values] == [v._mpf_ for v in want.values]


class TestDistortion:
    def test_identity_zero(self):
        assert koopman_distortion(PLHomeo.identity(), window_vector(2, 2), 2) == 0

    def test_translation_window_closed_form(self):
        # overlap oracle: <pi(t_c) xi_n, xi_n> = (2n - c)/(2n) for 0 <= c <= 2n
        t = PLHomeo.translation(1)
        got = koopman_distortion(t, window_vector(2, 2), 2)
        assert abs(got - mpmath.sqrt(mpf(1) / 2)) <= TOL
        for n in (1, 2, 4, 64):
            d = koopman_distortion(t, window_vector(n, 2), 2)
            assert abs(d - 1 / mpmath.sqrt(n)) <= TOL

    def test_translation_overlap_inner_product(self):
        t = PLHomeo.translation(1)
        for n in (1, 2, 8):
            xi = window_vector(n, 2)
            ip = inner_product(koopman_apply(t, xi, 2), xi)
            assert abs(ip - mpf(2 * n - 1) / (2 * n)) <= TOL

    def test_disjoint_support_escape(self):
        # moving a unit window completely off itself gives distortion 2^{1/p}
        far = PLHomeo.translation(10)
        for p in (1, 2, 4):
            xi = window_vector(2, p)
            d = koopman_distortion(far, xi, p)
            assert abs(d - 2 ** (1 / mpf(p))) <= TOL

    def test_operation_budget(self, monkeypatch):
        # one image, one difference (one refinement) and one norm per call,
        # and one merge each for the image and the refinement; p is
        # validated once, and no piece length or slope is taken to a real
        # through to_real
        calls = collections.Counter()
        converted = []

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            return wrapper

        names = (
            "_koopman_apply", "subtract", "refine", "_lp_norm", "check_exponent", "merge_sorted"
        )
        for name in names:
            monkeypatch.setattr(koopman, name, counted(name, getattr(koopman, name)))
        to_real, read_real = koopman.to_real, koopman.read_real
        monkeypatch.setattr(koopman, "to_real", lambda x: converted.append(x) or to_real(x))
        # a caller's real is read through read_real, one conversion each
        monkeypatch.setattr(
            koopman, "read_real", lambda x, name: converted.append(x) or read_real(x, name)
        )
        rng = random.Random(5)
        g, xi = random_plhomeo(rng, max_nodes=20), random_step_function(rng, max_pieces=30)
        koopman_distortion(g, xi, 3)
        assert calls == {**dict.fromkeys(names, 1), "merge_sorted": 2}
        assert converted == [3]  # p itself, in check_exponent

    def test_orders_on_integers(self, monkeypatch):
        # the image's node walk and evaluation, and the refinement's merge,
        # order breakpoints by integer cross-products, never as Fractions
        rng = random.Random(5)
        g, xi = random_plhomeo(rng, max_nodes=20), random_step_function(rng, max_pieces=30)
        a, b = support(xi)
        assert sum(a < x < b for x, _ in g.nodes) > 1  # g's nodes are merged
        calls = collections.Counter()

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            return wrapper

        for name in ("_richcmp", "__eq__", "__hash__"):
            monkeypatch.setattr(F, name, counted(name, getattr(F, name)))
        assert koopman_distortion(g, xi, 3) > 0
        assert calls == {}


class TestStepFunctionInput:
    """Breakpoints and radii are exact, as PLHomeo nodes are, and a value
    must be one that mpf reads; anything else is a DomainError that names
    its field."""

    @pytest.mark.parametrize(
        "breakpoints, field",
        [
            ((0.1, 1), "breakpoints[0]"),  # would round to 3602879701896397/2^55
            ((0, mpf(1)), "breakpoints[1]"),
            ((0, 1, None), "breakpoints[2]"),
        ],
    )
    def test_inexact_breakpoint(self, breakpoints, field):
        values = (mpf(1),) * (len(breakpoints) - 1)
        with pytest.raises(DomainError, match=re.escape(field)):
            StepFunction(breakpoints, values)

    @pytest.mark.parametrize("value", ["abc", None])
    def test_unreadable_value(self, value):
        with pytest.raises(DomainError, match=re.escape("values[1]")):
            StepFunction((0, 1, 2), (mpf(1), value))

    @pytest.mark.parametrize("n", [0.5, mpf(2), None])
    def test_inexact_radius(self, n):
        with pytest.raises(DomainError, match="^n: "):
            window_vector(n, 2)

    def test_exact_input_accepted(self):
        xi = StepFunction((0, F(1, 3)), ("1.5",))
        assert xi.breakpoints == (F(0), F(1, 3)) and type(xi.breakpoints[0]) is F
        assert window_vector(1, 2).breakpoints == (F(-1), F(1))


class TestWindowVector:
    def test_p2_value(self):
        xi = window_vector(1, 2)
        assert xi.breakpoints == (F(-1), F(1))
        assert abs(xi.values[0] - 1 / mpmath.sqrt(2)) <= TOL

    def test_p4_value(self):
        xi = window_vector(8, 4)
        assert abs(xi.values[0] - mpf(1) / 2) <= TOL

    def test_always_unit(self):
        for n in (F(1, 3), 1, 7, 4096):
            for p in (1, 2, 16):
                assert abs(lp_norm(window_vector(n, p), p) - 1) <= TOL

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            window_vector(0, 2)


class TestMazurMap:
    def test_indicator_fixed(self):
        xi = indicator(0, 1)
        out = mazur_map(xi, 2, 16)
        assert out.values == (mpf(1),)

    def test_power_example(self):
        xi = StepFunction((F(0), F(1), F(2)), (mpf(4), mpf(0)))
        out = mazur_map(xi, 2, 4)
        assert abs(out.values[0] - 2) <= TOL and out.values[1] == 0

    def test_preserves_sign(self):
        xi = StepFunction((F(0), F(1)), (mpf(-4),))
        assert mazur_map(xi, 2, 4).values[0] < 0

    def test_unit_sphere_to_unit_sphere(self):
        rng = random.Random(23)
        for _ in range(20):
            q, p = rng.choice([(2, 4), (2, 16), (1, 2)])
            xi = normalize(random_step_function(rng), q)
            assert abs(lp_norm(mazur_map(xi, q, p), p) - 1) <= TOL

    def test_lower_bound_random_pairs(self):
        rng = random.Random(29)
        for _ in range(30):
            q, p = rng.choice([(2, 4), (2, 16), (1, 2)])
            xi = normalize(random_step_function(rng), q)
            eta = normalize(random_step_function(rng), q)
            lhs = mpf(q) / p * lp_norm(subtract(xi, eta), q)
            rhs = lp_norm(subtract(mazur_map(xi, q, p), mazur_map(eta, q, p)), p)
            assert lhs <= rhs + TOL


ORACLE_REL = mpf("1e-20")
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


@st.composite
def window_cases(draw):
    """A map, an exponent and a window radius n; n is drawn both below
    and above N0, the radius from which the window holds every node."""
    xs = sorted(draw(st.lists(rationals, min_size=1, max_size=6, unique=True)))
    ys = sorted(draw(st.lists(rationals, min_size=len(xs), max_size=len(xs), unique=True)))
    g = PLHomeo(tuple(zip(xs, ys)))
    p = draw(st.sampled_from((2, 3, 16, 64)))
    n0 = WindowMap.of(g).n0
    scale = draw(st.fractions(min_value=F(1, 16), max_value=3, max_denominator=16))
    return g, max(n0, F(1, 8)) * scale, p


def closed_form_distortion(g, n, p):
    """||pi(g) xi_n - xi_n||_p in closed form, from g's window data:
    (2n d^p / 2n)^{1/p}, as the bound report's cells take it."""
    n = F(n)
    wm = WindowMap.of(g)
    power = mpmath.mp.make_mpf(wm.at(to_real(p)).scaled_power(wm.cut(n)))
    return (power / to_real(2 * n)) ** (1 / mpf(p))


def oracle_close(g, n, p):
    want = koopman_distortion(g, window_vector(n, p), p)
    got = closed_form_distortion(g, n, p)
    assert abs(got - want) <= ORACLE_REL * abs(want), (g.nodes, n, p, got, want)


class TestWindowDistortion:
    @settings(max_examples=200, deadline=None)
    @given(window_cases())
    def test_matches_koopman_oracle(self, case):
        oracle_close(*case)

    def test_identity_zero(self):
        for p in (2, 3, 16, 64):
            for n in (F(1, 3), 1, 100):
                assert closed_form_distortion(PLHomeo.identity(), n, p) == 0

    def test_translation_p2(self):
        c = F(3, 2)
        for n in (F(3, 2), 4, 64):
            d = closed_form_distortion(PLHomeo.translation(c), n, 2)
            assert abs(d**2 - to_real(c / n)) <= ORACLE_REL * d**2

    def test_window_disjoint_from_image(self):
        for p in (2, 3, 16, 64):
            d = closed_form_distortion(PLHomeo.translation(5), 1, p)
            assert abs(d - 2 ** (1 / mpf(p))) <= ORACLE_REL
            oracle_close(PLHomeo.translation(5), 1, p)

    def test_window_ends_inside_pieces(self):
        g = PLHomeo.from_pairs([(-4, -3), (0, 2), (3, 3)])
        assert g(-2) == F(-1, 2) and g(2) == F(8, 3)  # both inside a piece
        for p in (2, 3, 16, 64):
            oracle_close(g, 2, p)

    def test_light_pieces_beside_heavy_ones(self):
        # g fixes -2 and 2, has slopes near 1 inside the window and slope 4
        # outside it: at p = 64 the weights differ by 150 orders of magnitude.
        g = PLHomeo.from_pairs(
            [(-10, -10), (-9, -6), (-4, -4), (-2, -2), (0, F(1, 100)), (2, 2)]
        )
        for p in (2, 16, 64):
            oracle_close(g, 2, p)

    def test_constant_from_n0(self):
        g = PLHomeo.from_pairs([(-4, -3), (0, 2), (3, 3)])
        wm = WindowMap.of(g)
        assert wm.n0 == 4
        for p in (2, 3, 16, 64):
            profile = wm.at(to_real(p))
            values = {profile.scaled_power(wm.cut(wm.n0 * k)) for k in (1, F(3, 2), 2, 1000)}
            assert values == {profile.constant}
            oracle = 2 * wm.n0 * koopman_distortion(g, window_vector(wm.n0, p), p) ** p
            assert abs(mpmath.mp.make_mpf(profile.constant) - oracle) <= ORACLE_REL * oracle

    def test_int_nodes_exact(self):
        # Nodes given as plain ints give the window data of the same Fractions.
        raw = PLHomeo(((0, 0), (3, 1), (4, 4)))
        frac = PLHomeo(((F(0), F(0)), (F(3), F(1)), (F(4), F(4))))
        inv_slopes = oracles.piece_slopes(tuple((y, x) for x, y in raw.nodes))
        assert WindowMap.of(raw) == WindowMap.of(frac)
        assert WindowMap.of(raw).slopes == tuple(to_real(s)._mpf_ for s in inv_slopes)
        for p in (2, 3, 16, 64):
            for n in (F(1, 2), 2, 5):
                assert closed_form_distortion(raw, n, p) == closed_form_distortion(frac, n, p)

    def test_weights_keep_the_digits_of_pow(self):
        # `at` and `scaled_power` run on raw libmp values; they must give the
        # bits of the mpf loops in the oracles. The weights come from log s_j
        # taken once per map, and must equal |s^{1/p} - 1|^p as mpf **
        # computes it. p = 2.5 takes mpf_pow rather than mpf_pow_int.
        rng = random.Random(11)
        maps = [random_plhomeo(rng, max_nodes=10) for _ in range(40)]
        # g^{-1} has slope 111/10, 82/47 or 187/35 on one piece: for these,
        # exp(log(s) / 2) and sqrt(s) round apart at 30 or 50 digits.
        maps += [PLHomeo.from_pairs([(0, 0), (a, b), (400, 400)]) for a, b in
                 ((111, 10), (82, 47), (187, 35))]
        for digits in (15, 30, 50):
            with precision(digits):
                for g in maps:
                    wm = WindowMap.of(g)
                    inv_slopes = oracles.piece_slopes(tuple((y, x) for x, y in g.nodes))
                    cuts = [wm.cut(wm.n0 * k) for k in (F(1, 5), F(1, 2), F(9, 10), 1)]
                    for p in (1, 2, mpf("2.5"), 3, 16, 64):
                        pr = to_real(p)
                        got, want = wm.at(pr), oracles.window_profile(wm, p)
                        pow_weights = tuple(
                            abs(to_real(s) ** (1 / pr) - 1) ** pr for s in inv_slopes
                        )
                        case = (g.nodes, digits, p)
                        assert want[0] == pow_weights, case
                        assert got.weights == tuple(w._mpf_ for w in want[0]), case
                        assert got.masses == tuple(m._mpf_ for m in want[1]), case
                        assert got.constant == want[2]._mpf_, case
                        for c in cuts:
                            assert (got.scaled_power(c)
                                    == oracles.scaled_power(want, c)._mpf_), (case, c)

    def test_window_data_at_high_precision(self):
        # Window data built and used under one precision carries all of it.
        rng = random.Random(5)
        with precision(50):
            rel = mpf("1e-40")
            for _ in range(8):
                g = random_plhomeo(rng, max_nodes=8, max_mag=20)
                n0 = WindowMap.of(g).n0
                for p in (2, 3, 16, 64):
                    for n in (F(1, 3), F(7, 2), n0, 2 * n0):
                        want = koopman_distortion(g, window_vector(n, p), p)
                        got = closed_form_distortion(g, n, p)
                        assert abs(got - want) <= rel * want, (g.nodes, p, n, got, want)


@st.composite
def window_cut_cases(draw):
    """A map of 1 to 8 nodes and a window radius n of one kind: n at a
    node's x or y, g(n) or g(-n) at a node, the window's overlap with its
    image inside one piece, the window disjoint from its image, or n >= N0.
    Returns the kind, the map's window data and n."""
    xs = sorted(draw(st.lists(rationals, min_size=1, max_size=8, unique=True)))
    ys = sorted(draw(st.lists(rationals, min_size=len(xs), max_size=len(xs), unique=True)))
    xs, ys = zip(*PLHomeo(tuple(zip(xs, ys))).nodes)  # the canonical nodes
    kinds = ["node", "image at node", "disjoint", "past n0"]
    kind = draw(st.sampled_from(kinds + ["inside one piece"] if len(xs) > 1 else kinds))
    if kind == "inside one piece":
        # move piece j's midpoint to the fixed point 0; windows up to a
        # quarter of the piece's shorter side then meet only that piece
        j = draw(st.integers(0, len(xs) - 2))
        c, d = (xs[j] + xs[j + 1]) / 2, (ys[j] + ys[j + 1]) / 2
        xs, ys = [x - c for x in xs], [y - d for y in ys]
        side = min(xs[j + 1], ys[j + 1])
        n = side * draw(st.fractions(F(1, 64), F(1, 4)))
    elif kind == "disjoint":
        # g(x) >= x + 60 for every x, so g[-n, n] misses [-n, n] for n <= 30
        ys = [y + 100 for y in ys]
        n = draw(st.fractions(F(1, 8), 30))
    g = PLHomeo(tuple(zip(xs, ys)))
    wm = WindowMap.of(g)
    if kind == "node":
        n = draw(st.sampled_from([abs(v) for v in xs + ys if v] or [F(1)]))
    elif kind == "image at node":
        # g(n) = v for n = g^{-1}(v) > 0, g(-n) = v for n = -g^{-1}(v) > 0
        ginv = g.invert()
        n = draw(st.sampled_from([abs(ginv(v)) for v in xs + ys if ginv(v)] or [F(1)]))
    elif kind == "past n0":
        n = max(wm.n0, F(1, 8)) * draw(st.sampled_from((1, F(3, 2), 2, 100)))
    return kind, wm, n


class TestWindowCut:
    @settings(max_examples=200, deadline=None)
    @given(window_cut_cases())
    def test_bisection_matches_the_scan(self, case):
        # The cut finds its pieces by two bisections; the oracle scans every
        # piece that meets O. An off-by-one in either bisection drops or
        # adds a piece, or cuts a full one short.
        kind, wm, n = case
        got, want = wm.cut(n), oracles.window_cut(wm, n)
        assert got.covers_nodes == want.covers_nodes
        assert got.exact == want.exact
        assert list(got.full) == list(want.full)
        assert got.partial == want.partial
        if kind == "inside one piece":
            assert not want.full and len(want.partial) == 1
        elif kind == "disjoint":
            assert want.exact == to_real(4 * n)._mpf_ and not want.partial
        elif kind == "past n0":
            assert want.covers_nodes

    @settings(max_examples=100, deadline=None)
    @given(window_cut_cases())
    def test_orders_on_integers(self, case):
        # n >= N0, the clamps to [-n, n], the emptiness of O, both
        # bisections and the cut-short tests are signs of integer
        # cross-products, never Fraction comparisons
        _, wm, n = case
        calls = collections.Counter()

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            for name in ("_richcmp", "__eq__", "__hash__"):
                mp.setattr(F, name, counted(name, getattr(F, name)))
            wm.cut(n)
        assert calls == {}


# Results that koopman.py builds without validation must be exactly what the
# validating constructor would build from the same fields.

points = st.one_of(st.integers(-12, 12), st.fractions(-12, 12, max_denominator=4))
step_values = st.one_of(st.just(0), st.floats(-5, 5).map(lambda v: mpf(repr(v))))


@st.composite
def step_functions(draw, shared=()):
    """A step function whose breakpoints are ints and Fractions, some of
    them drawn from `shared`."""
    source = st.one_of(st.sampled_from(shared), points) if shared else points
    bps = sorted(draw(st.lists(source, min_size=2, max_size=7, unique=True)))
    return StepFunction(tuple(bps), tuple(draw(step_values) for _ in bps[1:]))


@st.composite
def step_pairs(draw):
    """Two step functions that overlap, are disjoint or share endpoints."""
    shared = draw(st.lists(points, max_size=4, unique=True))
    return draw(step_functions(shared)), draw(step_functions(shared))


@st.composite
def pl_maps(draw):
    if draw(st.booleans()):
        return PLHomeo.translation(draw(points))
    xs = sorted(draw(st.lists(points, min_size=1, max_size=5, unique=True)))
    ys = sorted(draw(st.lists(points, min_size=len(xs), max_size=len(xs), unique=True)))
    return PLHomeo(tuple(zip(xs, ys)))


def refine_oracle(xi, eta):
    breaks = sorted(set(xi.breakpoints) | set(eta.breakpoints))
    return [(a, b, value_at(xi, a), value_at(eta, a)) for a, b in zip(breaks, breaks[1:])]


def assert_validated(r):
    """StepFunction(r.breakpoints, r.values) has r's fields, to the type."""
    v = StepFunction(r.breakpoints, r.values)
    assert v == r
    assert [type(x) for x in r.breakpoints] == [type(x) for x in v.breakpoints]
    assert [type(x) for x in r.values] == [type(x) for x in v.values]


class TestTrustedResults:
    @settings(max_examples=200, deadline=None)
    @given(step_pairs())
    def test_refine_matches_oracle(self, pair):
        xi, eta = pair
        assert refine(xi, eta) == refine_oracle(xi, eta)

    @settings(max_examples=150, deadline=None)
    @given(pl_maps(), step_pairs(), st.sampled_from((1, 2, 3, 16)))
    def test_results_are_valid(self, g, pair, p):
        xi, eta = pair
        out = koopman_apply(g, xi, p)
        assert_validated(out)
        assert_pointwise(g, xi, p, out)
        assert_validated(subtract(xi, eta))
        assert_validated(mazur_map(xi, 2, p))
        if any(xi.values):
            assert_validated(normalize(xi, p))


def bits(x):
    """A step function's breakpoints and raw values, or a real's raw value."""
    if isinstance(x, StepFunction):
        return x.breakpoints, [v._mpf_ for v in x.values]
    return x._mpf_


def bit_cases(rng):
    """(g, xi, eta): maps, among them a pure translation (one node), and
    step functions with zero-valued pieces whose support reaches past g's
    first and last node. Built at the working precision, so the values
    carry all of its bits."""
    maps = [PLHomeo.translation(F(-5, 3)), BUMP]
    # g^{-1} has slope 111/10, 82/47 or 187/35 on one piece: for these,
    # sqrt(s) and exp(log(s) / 2) round apart at 30 or 50 digits
    maps += [PLHomeo.from_pairs([(0, 0), (a, b), (400, 400)]) for a, b in
             ((111, 10), (82, 47), (187, 35))]
    maps += [random_plhomeo(rng, max_nodes=8, max_mag=40) for _ in range(20)]
    cases = []
    for g in maps:
        xs = [x for x, _ in g.nodes]
        fns = []
        for _ in range(2):
            inner = {random_rational(rng, 40) for _ in range(rng.randint(0, 8))}
            bps = sorted({xs[0] - 1, xs[-1] + F(1, 3)} | inner)
            # the first piece is nonzero, so that normalize applies
            values = [
                mpf(0) if i and rng.random() < 0.25 else mpf(repr(rng.uniform(-5, 5))) / 3
                for i in range(len(bps) - 1)
            ]
            fns.append(StepFunction(tuple(bps), tuple(values)))
        cases.append((g, *fns))
    return cases


class TestBitIdentity:
    """The Koopman operations run on raw libmp values; they must give the
    bits of the mpf expressions in the oracles."""

    PS = (1, 2, 3, 4, 16, mpf("2.5"), mpf("1.7"))

    @pytest.mark.parametrize("digits", [15, 30, 50])
    def test_matches_mpf_oracles(self, digits):
        rng = random.Random(digits)
        with precision(digits):
            for g, xi, eta in bit_cases(rng):
                for p in self.PS:
                    q = rng.choice(self.PS)
                    case = (digits, g.nodes, xi.breakpoints, p, q)
                    image = oracles.koopman_apply(g, xi, p)
                    assert bits(koopman_apply(g, xi, p)) == bits(image), case
                    assert bits(lp_norm(xi, p)) == bits(oracles.lp_norm(xi, p)), case
                    assert bits(subtract(xi, eta)) == bits(oracles.subtract(xi, eta)), case
                    want = oracles.mazur_map(xi, q, p)
                    assert bits(mazur_map(xi, q, p)) == bits(want), case
                    assert bits(normalize(eta, p)) == bits(oracles.normalize(eta, p)), case
                    want = oracles.lp_norm(oracles.subtract(image, xi), p)
                    assert bits(koopman_distortion(g, xi, p)) == bits(want), case

    def test_cases_reach_past_the_nodes(self):
        cases = bit_cases(random.Random(0))
        assert len(cases[0][0].nodes) == 1  # a pure translation
        for g, xi, _ in cases:
            assert xi.breakpoints[0] < g.nodes[0][0] and g.nodes[-1][0] < xi.breakpoints[-1]
        assert any(v == 0 for _, xi, eta in cases for v in xi.values + eta.values)
