import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from kazhlip import DomainError, IntervalUnion, PLHomeo, SchemaError, parse_rational
from kazhlip.plmap import evaluate_sorted, format_rational, merge_sorted
from kazhlip.verify import random_plhomeo
from oracles import contains, fixed_pieces, from_intervals, is_canonical, piece_slopes

BUMP = PLHomeo.from_pairs([(0, 0), (1, 2), (3, 3)])
SMALL_BUMP = PLHomeo.from_pairs([(0, 0), (1, F(3, 2)), (2, 2)])
IDENT = PLHomeo.identity()


def interp_oracle(nodes, x):
    """Hand interpolation, independent of PLHomeo.evaluate."""
    x = F(x)
    if x <= nodes[0][0]:
        return x + nodes[0][1] - nodes[0][0]
    if x >= nodes[-1][0]:
        return x + nodes[-1][1] - nodes[-1][0]
    for (x0, y0), (x1, y1) in zip(nodes, nodes[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)
# The kernel multiplies unreduced numerators and denominators; these
# rationals have parts of up to 200 bits and either sign.
WIDE = 2**200
wide_ints = st.integers(-WIDE, WIDE)
wide_rationals = st.builds(F, wide_ints, st.integers(1, WIDE))
wide_positives = st.builds(F, st.integers(1, WIDE), st.integers(1, WIDE))


@st.composite
def plhomeos(draw, max_nodes=6, coords=rationals):
    xs = draw(
        st.lists(coords, min_size=1, max_size=max_nodes, unique=True)
    )
    ys = draw(
        st.lists(coords, min_size=len(xs), max_size=len(xs), unique=True)
    )
    return PLHomeo(tuple(zip(sorted(xs), sorted(ys))))


@st.composite
def int_plhomeos(draw, max_nodes=6, ints=st.integers(-50, 50)):
    """Maps built from int nodes, which canonicalisation keeps as ints."""
    xs = draw(st.lists(ints, min_size=1, max_size=max_nodes, unique=True))
    ys = draw(st.lists(ints, min_size=len(xs), max_size=len(xs), unique=True))
    return PLHomeo(tuple(zip(sorted(xs), sorted(ys))))


# Every kind of map the trusted constructors treat apart: general maps,
# translations (one node), the identity and maps with int nodes.
any_plhomeos = st.one_of(
    plhomeos(), rationals.map(PLHomeo.translation), st.just(IDENT), int_plhomeos()
)
wide_plhomeos = plhomeos(coords=wide_rationals)
any_wide_plhomeos = st.one_of(
    wide_plhomeos,
    wide_rationals.map(PLHomeo.translation),
    st.just(IDENT),
    int_plhomeos(ints=wide_ints),
)


@st.composite
def near_diagonal_plhomeos(draw):
    """Maps with offsets f(x) - x in {-c, 0, c} at nodes at least 3c apart,
    so that their fixed sets hold many components: points, segments, rays
    and roots inside pieces."""
    c = draw(st.fractions(min_value=F(1, 40), max_value=40, max_denominator=40))
    gaps = draw(st.lists(st.integers(3, 9), max_size=10))
    xs = itertools.accumulate(gaps, initial=draw(st.integers(-20, 20)))
    return PLHomeo.from_pairs(
        [(c * x, c * (x + draw(st.sampled_from((-1, 0, 0, 1))))) for x in xs]
    )


# The kernel's formulas as plain Fraction expressions, each normalised
# step by step: the references for its integer cross-products.


def canonical_oracle(nodes):
    """The nodes where the slope changes, the tails having slope 1; a
    translation by c collapses to (0, c)."""
    slopes = [F(1), *piece_slopes(nodes), F(1)]
    kept = tuple(n for n, a, b in zip(nodes, slopes, slopes[1:]) if a != b)
    return kept or ((F(0), nodes[0][1] - nodes[0][0]),)


def lip_oracle(f):
    slopes = piece_slopes(f.nodes)
    return max([F(1), *slopes, *(1 / s for s in slopes)])


def check_fixed_set(f):
    """f.fixed_set() is exactly {x : f(x) = x}. f(x) - x is linear between
    consecutive points of `pts`, which hold every node and every finite
    end of a component: so it agrees on `pts`, between them and on both
    tails, and it changes sign between no two neighbours of `pts`."""
    fs = f.fixed_set()
    assert is_canonical(fs)
    ends = {e for c in fs.components for e in c if e is not None}
    pts = sorted({x for x, _ in f.nodes} | ends)
    probes = pts + [F(a + b) / 2 for a, b in zip(pts, pts[1:])] + [pts[0] - 1, pts[-1] + 1]
    for x in probes:
        assert contains(fs, x) == (f.evaluate(x) == x)
    gaps = [f.evaluate(x) - x for x in pts]
    assert all(g0 * g1 >= 0 for g0, g1 in zip(gaps, gaps[1:]))


@st.composite
def collinear_insertions(draw):
    """(nodes, padded): a wide map's canonical nodes, and the same map with
    nodes added inside its pieces and on its tails, each on the line that
    is already there."""
    f = draw(wide_plhomeos)
    nodes = list(f.nodes)
    inside = st.fractions(min_value=0, max_value=1, max_denominator=WIDE).filter(
        lambda t: 0 < t < 1
    )
    padded = []
    for (x0, y0), (x1, y1) in zip(nodes, nodes[1:]):
        padded.append((x0, y0))
        for t in sorted(set(draw(st.lists(inside, max_size=3)))):
            padded.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    padded.append(nodes[-1])
    # the tails are the slope-1 lines through the end nodes
    x, y = nodes[0]
    gaps = sorted(set(draw(st.lists(wide_positives, max_size=2))))
    padded = [(x - g, y - g) for g in reversed(gaps)] + padded
    x, y = nodes[-1]
    padded += [(x + g, y + g) for g in gaps]
    return tuple(nodes), tuple(padded)


def compose_oracle(f, g):
    """f o g through the validating constructor: its nodes at every x-node
    of g and every preimage under g of an x-node of f, sorted and deduplicated."""
    g_inv = [(y, x) for x, y in g.nodes]
    xs = sorted({*(x for x, _ in g.nodes), *(interp_oracle(g_inv, x) for x, _ in f.nodes)})
    ys = [interp_oracle(f.nodes, interp_oracle(g.nodes, x)) for x in xs]
    return PLHomeo(tuple(zip(xs, ys)))


class TestEvaluate:
    def test_identity(self):
        assert IDENT.evaluate(7) == 7

    def test_translation(self):
        assert PLHomeo.translation(3).evaluate(-2) == 1

    def test_interior_slope(self):
        assert BUMP.evaluate(F(1, 2)) == 1
        assert BUMP.evaluate(F(1, 2)) == interp_oracle(BUMP.nodes, F(1, 2))

    def test_int_nodes(self):
        f = PLHomeo(((0, 0), (3, 1), (4, 4)))
        assert f.evaluate(1) == F(1, 3) and isinstance(f.evaluate(1), F)
        assert f.invert().evaluate(F(1, 3)) == 1

    @given(plhomeos(), rationals)
    def test_matches_interpolation_oracle(self, f, x):
        assert f.evaluate(x) == interp_oracle(f.nodes, x)


@st.composite
def sorted_points(draw, coords, anywhere=rationals):
    """Increasing points, with repeats, drawn from the node coordinates, the
    midpoints between them, both tails and anywhere else."""
    coords = sorted(coords)
    special = coords + [F(a + b, 2) for a, b in zip(coords, coords[1:])]
    special += [coords[0] - 1, coords[-1] + 1]
    points = draw(
        st.lists(st.one_of(st.sampled_from(special), anywhere), min_size=1, max_size=12)
    )
    return sorted(points + points[:2])


class TestEvaluateSorted:
    @given(st.data())
    def test_matches_interpolation_oracle(self, data):
        f = data.draw(plhomeos())
        xs, ys = zip(*f.nodes)
        points = data.draw(sorted_points(xs))
        assert evaluate_sorted(xs, ys, points) == [interp_oracle(f.nodes, x) for x in points]

    @given(st.data())
    def test_swapped_nodes_give_the_inverse(self, data):
        f = data.draw(plhomeos())
        xs, ys = zip(*f.nodes)
        points = data.draw(sorted_points(ys))
        inv = f.invert()
        assert evaluate_sorted(ys, xs, points) == [inv.evaluate(y) for y in points]

    @given(st.data())
    def test_wide_rationals_match_the_oracle(self, data):
        f = data.draw(st.one_of(wide_plhomeos, int_plhomeos(ints=wide_ints)))
        xs, ys = zip(*f.nodes)
        points = data.draw(sorted_points(xs, wide_rationals))
        values = evaluate_sorted(xs, ys, points)
        assert all(type(v) is F for v in values)
        assert values == [interp_oracle(f.nodes, x) for x in points]
        # the inverse, and int points
        points = data.draw(sorted_points(ys, wide_ints))
        assert evaluate_sorted(ys, xs, points) == [
            interp_oracle(f.invert().nodes, y) for y in points
        ]

    @given(st.data())
    def test_int_nodes_give_fractions(self, data):
        def ints(size):
            return st.lists(
                st.integers(-50, 50), min_size=size, max_size=size, unique=True
            )

        xs = sorted(data.draw(st.integers(1, 6).flatmap(ints)))
        ys = sorted(data.draw(ints(len(xs))))
        points = [F(x) for x in data.draw(sorted_points(xs))]
        values = evaluate_sorted(xs, ys, points)
        assert all(type(v) is F for v in values)
        assert values == [interp_oracle(list(zip(xs, ys)), x) for x in points]


# ints and Fractions, narrow and of up to 200 bits, in one list
mixed_coords = st.one_of(st.integers(-50, 50), rationals, wide_ints, wide_rationals)


@st.composite
def mixed_nodes(draw, max_nodes=6):
    """Increasing nodes (xs, ys) whose coordinates mix ints and Fractions;
    a single node is a translation."""
    xs = sorted(draw(st.lists(mixed_coords, min_size=1, max_size=max_nodes, unique=True)))
    ys = sorted(draw(st.lists(mixed_coords, min_size=len(xs), max_size=len(xs), unique=True)))
    return xs, ys


class TestOrderOnIntegers:
    """The walks that locate points among nodes, and merge two node lists,
    by integer cross-products, against plain Fraction comparisons."""

    @given(st.data())
    def test_evaluate_mixed_nodes(self, data):
        xs, ys = data.draw(mixed_nodes())
        # node coordinates as they are (ints stay ints), midpoints, both
        # tails, anywhere
        points = data.draw(sorted_points(xs, mixed_coords))
        values = evaluate_sorted(xs, ys, points)
        assert all(type(v) is F for v in values)
        assert values == [interp_oracle(list(zip(xs, ys)), x) for x in points]

    @given(mixed_coords, mixed_coords, st.lists(mixed_coords, min_size=1, max_size=6))
    def test_evaluate_translation(self, x0, y0, points):
        # one node: slope-1 tails on both sides, and the node itself
        points = sorted(points + [x0])
        assert evaluate_sorted([x0], [y0], points) == [F(x) + F(y0) - F(x0) for x in points]

    @given(st.data())
    def test_evaluate_points_outside_the_nodes(self, data):
        xs, ys = data.draw(mixed_nodes())
        left = data.draw(st.lists(wide_positives, max_size=3))
        right = data.draw(st.lists(wide_positives, max_size=3))
        points = sorted([xs[0] - d for d in left]) + sorted([xs[-1] + d for d in right])
        want = [x + F(ys[0] - xs[0]) for x in points[: len(left)]]
        want += [x + F(ys[-1] - xs[-1]) for x in points[len(left):]]
        assert evaluate_sorted(xs, ys, points) == want

    @given(st.data())
    def test_merge_matches_a_sort(self, data):
        pool = data.draw(st.lists(mixed_coords, min_size=1, max_size=10, unique=True))
        xs = sorted(data.draw(st.lists(st.sampled_from(pool), max_size=6, unique=True)))
        us = sorted(data.draw(st.lists(st.sampled_from(pool), max_size=6, unique=True)))
        # a value shared with xs may come as an int in one list and as a
        # Fraction in the other
        us = [data.draw(st.sampled_from([u, F(u)])) for u in us]
        got = merge_sorted(xs, us)
        # the union in order; on equal values the element of xs, with its
        # own type, is kept
        want = {F(u): u for u in us}
        want.update({F(x): x for x in xs})
        assert [(type(x), x) for x, _, _, _ in got] == [
            (type(x), x) for _, x in sorted(want.items())
        ]
        for x, i, j, from_xs in got:
            assert i == sum(a <= x for a in xs)
            assert j == sum(u <= x for u in us)
            assert from_xs == (x in xs)

    def test_merge_ends_and_ties(self):
        assert merge_sorted([], []) == []
        assert merge_sorted([F(1, 2)], []) == [(F(1, 2), 1, 0, True)]
        assert merge_sorted([], [F(1, 2)]) == [(F(1, 2), 0, 1, False)]
        # an int in xs equal to a Fraction in us: both step, and the int is
        # kept
        got = merge_sorted([-1, 3], [F(3), F(7, 2)])
        assert got == [(-1, 1, 0, True), (3, 2, 1, True), (F(7, 2), 2, 2, False)]
        assert type(got[1][0]) is int


class TestParseRational:
    def test_json_floats_read_as_written(self):
        assert parse_rational(0.5) == F(1, 2)
        assert parse_rational(0.1) == F(1, 10)
        assert parse_rational(-2.0) == -2
        assert parse_rational(1e-13) == F(1, 10**13)

    def test_exponent_cap(self):
        assert parse_rational("1e4300") == 10**4300
        assert parse_rational(" 3E-4300 ") == F(3, 10**4300)
        assert parse_rational("1e00004300") == 10**4300
        # Rejected before Fraction() would build 10^400000000.
        for text in ("1e400000000", "1e4301", "-2.5e-4301", "1e" + "9" * 5000):
            with pytest.raises(SchemaError) as exc:
                parse_rational(text, "nodes[0][0]")
            assert "nodes[0][0]" in str(exc.value)


class TestCanonicalForm:
    def test_collinear_nodes_removed(self):
        # (1,2) sits on the slope-2 segment; (4,6) continues the slope-1 tail
        f = PLHomeo.from_pairs([(0, 0), (1, 2), (2, 4), (4, 6)])
        assert f.nodes == ((F(0), F(0)), (F(2), F(4)))

    def test_translation_collapses(self):
        f = PLHomeo.from_pairs([(1, 4), (2, 5), (7, 10)])
        assert f == PLHomeo.translation(3)

    def test_identity_canonical(self):
        assert PLHomeo.from_pairs([(5, 5), (9, 9)]) == IDENT

    def test_rejects_nonincreasing(self):
        with pytest.raises(DomainError):
            PLHomeo.from_pairs([(0, 0), (0, 1)])
        with pytest.raises(DomainError):
            PLHomeo.from_pairs([(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "nodes, field",
        [
            (((0.5, 1.0), (1.5, 2.0)), "nodes[0][0]"),
            (((0, mpf(1)),), "nodes[0][1]"),
            (((0, 0), (Decimal("1.5"), 2)), "nodes[1][0]"),
        ],
        ids=["float", "mpf", "Decimal"],
    )
    def test_rejects_non_rational_coordinates(self, nodes, field):
        with pytest.raises(DomainError, match=re.escape(field)):
            PLHomeo(nodes)

    @given(st.lists(st.tuples(mixed_coords, mixed_coords), min_size=1, max_size=6))
    def test_validation_message_matches_the_fraction_oracle(self, nodes):
        # the first bad node in order, its x before its y, named as the
        # Fraction comparisons x1 <= x0 and y1 <= y0 name it
        want = None
        for (x0, y0), (x1, y1) in zip(nodes, nodes[1:]):
            if x1 <= x0:
                want = f"x-coordinates not strictly increasing at x={format_rational(F(x1))}"
            elif y1 <= y0:
                want = f"y-coordinates not strictly increasing at y={format_rational(F(y1))}"
            if want:
                break
        if want is None:
            assert PLHomeo(tuple(nodes)).nodes == canonical_oracle(nodes)
        else:
            with pytest.raises(DomainError) as exc:
                PLHomeo(tuple(nodes))
            assert str(exc.value) == want

    @given(st.one_of(wide_plhomeos, int_plhomeos(ints=wide_ints)))
    def test_wide_rationals_match_the_oracle(self, f):
        assert f.nodes == canonical_oracle(f.nodes)
        assert PLHomeo(f.nodes).nodes == f.nodes

    @given(collinear_insertions())
    def test_collinear_nodes_collapse(self, case):
        nodes, padded = case
        assert PLHomeo(padded).nodes == nodes == canonical_oracle(padded)

    @given(st.data())
    def test_collinear_run_with_a_wide_slope(self, data):
        xs = sorted(data.draw(st.lists(wide_rationals, min_size=2, max_size=6, unique=True)))
        slope = data.draw(wide_positives)
        c = data.draw(wide_rationals)
        nodes = tuple((x, c + slope * x) for x in xs)
        want = (nodes[0], nodes[-1]) if slope != 1 else ((F(0), c),)
        assert PLHomeo(nodes).nodes == want == canonical_oracle(nodes)


class TestCompose:
    def test_translations_add(self):
        a, b = PLHomeo.translation(F(5, 2)), PLHomeo.translation(F(1, 2))
        assert a.compose(b) == PLHomeo.translation(3)

    def test_identity_neutral(self):
        assert BUMP.compose(IDENT) == BUMP
        assert IDENT.compose(BUMP) == BUMP

    def test_inverse_gives_identity(self):
        assert BUMP.compose(BUMP.invert()) == IDENT

    def test_int_nodes_stay_exact(self):
        f = PLHomeo(((0, 0), (3, 1), (4, 4)))
        ff = f.compose(f)
        assert ff == PLHomeo.from_pairs(f.nodes).compose(PLHomeo.from_pairs(f.nodes))
        coords = [c for node in ff.nodes for c in node]
        assert F(11, 3) in coords
        assert all(isinstance(c, (int, F)) for c in coords)

    @given(any_plhomeos, st.one_of(st.integers(-50, 50), rationals))
    def test_translation_shifts_nodes(self, f, c):
        # composing with a translation by c gives the nodes (x - c, y) or
        # (x, y + c), of the types that Python's own - and + give: an int
        # shifted by an int stays an int
        t = PLHomeo.translation(c)
        if len(f.nodes) == 1:
            wants = [((F(0), f.nodes[0][1] + c),)] * 2
        else:
            wants = [tuple((x - c, y) for x, y in f.nodes), tuple((x, y + c) for x, y in f.nodes)]
        for h, want in zip((f.compose(t), t.compose(f)), wants):
            assert h.nodes == want
            assert [type(v) for node in h.nodes for v in node] == [
                type(v) for node in want for v in node
            ]

    @given(plhomeos(), plhomeos(), rationals)
    @settings(max_examples=60)
    def test_pointwise(self, f, g, x):
        assert f.compose(g).evaluate(x) == f.evaluate(g.evaluate(x))


class TestTrustedResults:
    """compose, invert and conjugate_by_homothety build their results
    without validation; each must already be the canonical node tuple."""

    @given(st.data())
    @settings(max_examples=200)
    def test_results_are_canonical(self, data):
        f = data.draw(any_plhomeos)
        g = data.draw(st.one_of(any_plhomeos, st.just(f.invert())))
        alpha = data.draw(st.fractions(min_value=F(1, 40), max_value=40, max_denominator=40))
        for h in (f.compose(g), g.compose(f), f.invert(), f.conjugate_by_homothety(alpha)):
            assert PLHomeo(h.nodes).nodes == h.nodes
            assert hash(PLHomeo(h.nodes)) == hash(h)

    @given(st.data())
    @settings(max_examples=200)
    def test_compose_matches_validating_oracle(self, data):
        f = data.draw(any_plhomeos)
        g = data.draw(st.one_of(any_plhomeos, st.just(f.invert())))
        assert f.compose(g).nodes == compose_oracle(f, g).nodes
        assert g.compose(f).nodes == compose_oracle(g, f).nodes

    @given(st.data())
    @settings(max_examples=100)
    def test_wide_compose_matches_validating_oracle(self, data):
        f = data.draw(any_wide_plhomeos)
        g = data.draw(st.one_of(any_wide_plhomeos, st.just(f.invert())))
        assert f.compose(g).nodes == compose_oracle(f, g).nodes
        assert g.compose(f).nodes == compose_oracle(g, f).nodes


class TestEquality:
    """Maps are equal when their canonical node tuples are, read as
    integer numerator and denominator pairs; the hash agrees."""

    def test_int_and_fraction_nodes(self):
        ints = PLHomeo(((0, 0), (1, 2), (3, 3)))
        fractions = PLHomeo(((F(0), F(0)), (F(1), F(2)), (F(3), F(3))))
        assert type(ints.nodes[1][1]) is int and type(fractions.nodes[1][1]) is F
        assert ints == fractions and hash(ints) == hash(fractions)
        assert PLHomeo.translation(2) == PLHomeo.translation(F(2))
        assert hash(PLHomeo.translation(2)) == hash(PLHomeo.translation(F(2)))

    def test_differences(self):
        assert BUMP != PLHomeo.from_pairs([(0, 0), (1, F(5, 2)), (3, 3)])
        assert BUMP != PLHomeo.from_pairs([(0, 0), (1, 2), (3, 3), (4, 5)])
        assert PLHomeo.translation(F(1, 2)) != PLHomeo.translation(F(1, 3))
        assert BUMP != BUMP.nodes and BUMP.__eq__(BUMP.nodes) is NotImplemented

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_node_tuple_equality(self, data):
        # small magnitudes make equal maps from different draws common
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        f, g = random_plhomeo(rng, 3, 2), random_plhomeo(rng, 3, 2)
        assert (f == g) == (f.nodes == g.nodes)
        assert f == PLHomeo._canonical(tuple((x, y) for x, y in f.nodes))
        if f == g:
            assert hash(f) == hash(g)


class TestInvert:
    def test_examples(self):
        assert IDENT.invert() == IDENT
        assert PLHomeo.translation(F(7, 3)).invert() == PLHomeo.translation(F(-7, 3))
        assert BUMP.invert().nodes == ((F(0), F(0)), (F(2), F(1)), (F(3), F(3)))

    @given(plhomeos())
    def test_is_two_sided_inverse(self, f):
        assert f.compose(f.invert()) == IDENT
        assert f.invert().compose(f) == IDENT


class TestSlopeAt:
    def test_bump(self):
        slopes = [BUMP.slope_at(x) for x in (-1, 0, F(1, 2), 1, 2, 3, 4)]
        assert slopes == [1, 2, 2, F(1, 2), F(1, 2), 1, 1]

    @given(st.one_of(any_plhomeos, any_wide_plhomeos))
    def test_tails_and_right_hand_slopes(self, f):
        # slope 1 left of the first node, at the last and right of it; at
        # every other node, the slope of the piece that starts there
        xs = [x for x, _ in f.nodes]
        expected = [*piece_slopes(f.nodes), 1, 1]
        slopes = [f.slope_at(x) for x in (xs[0] - 1, *xs, xs[-1] + 1)]
        assert slopes[1:] == expected and slopes[0] == 1
        assert all(type(s) is F for s in slopes)


class TestLipConstant:
    def test_identity(self):
        assert IDENT.lip_constant() == 1

    def test_bump(self):
        assert BUMP.lip_constant() == 2

    def test_slope_enumeration_oracle(self):
        # slopes {1/2, 3}: max over slopes and reciprocals is 3
        f = PLHomeo.from_pairs([(0, 0), (2, 1), (3, 4)])
        slopes = piece_slopes(f.nodes)
        assert set(slopes) == {F(1, 2), F(3)}
        oracle = max([F(1)] + [s for s in slopes] + [1 / s for s in slopes])
        assert f.lip_constant() == oracle == 3

    @given(st.one_of(plhomeos(), wide_plhomeos, int_plhomeos(ints=wide_ints)))
    def test_matches_the_slope_oracle(self, f):
        lip = f.lip_constant()
        assert type(lip) is F and lip == lip_oracle(f)

    @given(plhomeos())
    def test_inverse_has_same_lip(self, f):
        assert f.invert().lip_constant() == f.lip_constant()

    @given(plhomeos(), plhomeos())
    @settings(max_examples=60)
    def test_submultiplicative(self, f, g):
        assert f.compose(g).lip_constant() <= f.lip_constant() * g.lip_constant()

    @given(plhomeos(), rationals, rationals)
    @settings(max_examples=60)
    def test_two_point_bi_lipschitz(self, f, x, y):
        if x == y:
            return
        x, y = min(x, y), max(x, y)
        lip = f.lip_constant()
        gap = f.evaluate(y) - f.evaluate(x)
        assert (y - x) / lip <= gap <= lip * (y - x)


class TestDisplacement:
    def test_examples(self):
        assert PLHomeo.translation(F(-5, 2)).displacement() == F(5, 2)
        assert IDENT.displacement() == 0
        assert SMALL_BUMP.displacement() == F(1, 2)

    def test_dense_sampling_oracle(self):
        d = SMALL_BUMP.displacement()
        samples = [F(k, 16) for k in range(-40, 80)]
        assert all(abs(SMALL_BUMP.evaluate(x) - x) <= d for x in samples)
        assert any(abs(SMALL_BUMP.evaluate(x) - x) == d for x in samples)

    @given(st.one_of(any_wide_plhomeos, int_plhomeos()))
    def test_matches_the_fraction_oracle(self, f):
        d = f.displacement()
        assert type(d) is F and d == max(abs(F(y - x)) for x, y in f.nodes)

    @given(plhomeos(), plhomeos())
    @settings(max_examples=60)
    def test_subadditive(self, f, g):
        assert f.compose(g).displacement() <= f.displacement() + g.displacement()


class TestHomothetyConjugation:
    def test_translation(self):
        f = PLHomeo.translation(2).conjugate_by_homothety(2)
        assert f == PLHomeo.translation(1)
        assert f.displacement() == 1

    def test_identity(self):
        assert IDENT.conjugate_by_homothety(F(7, 5)) == IDENT

    def test_rescale_half(self):
        f = SMALL_BUMP.conjugate_by_homothety(F(1, 2))
        assert f.displacement() == 1
        # slopes are {3/2, 1/2}; the reciprocal of 1/2 wins
        assert f.lip_constant() == SMALL_BUMP.lip_constant() == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            SMALL_BUMP.conjugate_by_homothety(0)
        with pytest.raises(DomainError):
            SMALL_BUMP.conjugate_by_homothety(-1)

    def test_matches_explicit_composition(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_plhomeo(rng, max_mag=60)
            alpha = abs(F(rng.randint(1, 40), rng.randint(1, 40)))
            phi = PLHomeo.from_pairs([(0, 0), (1, alpha)])  # x -> alpha x, PL form
            # phi has slope alpha on [0,1] only, so compare pointwise instead
            conj = f.conjugate_by_homothety(alpha)
            for k in range(-5, 6):
                x = F(k, 3)
                assert conj.evaluate(x) == f.evaluate(alpha * x) / alpha


class TestFixedSet:
    def test_identity_whole_line(self):
        assert IDENT.fixed_set() == IntervalUnion.whole_line()

    def test_translation_empty(self):
        assert PLHomeo.translation(1).fixed_set().is_empty

    def test_bump_rays(self):
        assert SMALL_BUMP.fixed_set() == from_intervals(
            [(None, F(0)), (F(2), None)]
        )

    def test_interior_root(self):
        # crosses the diagonal inside a piece: f(x) = x at x = 1/2
        f = PLHomeo.from_pairs([(0, F(1, 4)), (1, F(3, 4))])
        fs = f.fixed_set()
        assert fs.components == ((F(1, 2), F(1, 2)),)

    def test_int_nodes_give_an_exact_root(self):
        f = PLHomeo(((0, 1), (4, 2)))  # f(x) = x at x = 4/3
        assert f.fixed_set().components == ((F(4, 3), F(4, 3)),)
        assert type(f.fixed_set().components[0][0]) is F

    def test_slope_one_fixed_interval(self):
        f = PLHomeo.from_pairs([(-1, -2), (0, 0), (1, 1), (2, 3)])
        assert (F(0), F(1)) in f.fixed_set().components

    @given(plhomeos(), rationals)
    @settings(max_examples=80)
    def test_membership_agrees_with_evaluate(self, f, x):
        assert contains(f.fixed_set(), x) == (f.evaluate(x) == x)

    @given(st.one_of(
        plhomeos(), wide_plhomeos, int_plhomeos(ints=wide_ints), near_diagonal_plhomeos()
    ))
    def test_exact_on_every_piece(self, f):
        check_fixed_set(f)

    @given(st.one_of(any_wide_plhomeos, near_diagonal_plhomeos()))
    def test_matches_the_sorted_piece_scan(self, f):
        # fixed_set builds its components in order; the oracle sorts and
        # merges the unordered scan
        assert f.fixed_set() == from_intervals(fixed_pieces(f))
