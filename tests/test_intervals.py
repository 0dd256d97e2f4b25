from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from kazhlip import IntervalUnion
from oracles import contains, from_intervals, is_canonical

ends = st.one_of(
    st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=6)
)


KINDS = ["interval", "point", "left ray", "right ray"]


def component(a, b, kind):
    lo, hi = min(a, b), max(a, b)
    return {"interval": (lo, hi), "point": (lo, lo), "left ray": (None, hi),
            "right ray": (lo, None)}[kind]


# closed intervals, single points and rays, with int and Fraction ends;
# rays that overlap make the whole line
unions = st.lists(
    st.builds(component, ends, ends, st.sampled_from(KINDS)), max_size=5
).map(from_intervals)


def probes(*us):
    """Every finite end of the unions, the midpoints between consecutive
    ones, and a point beyond each side."""
    pts = sorted({e for u in us for c in u.components for e in c if e is not None})
    if not pts:
        return [F(0)]
    mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    return pts + mids + [pts[0] - 1, pts[-1] + 1]


class TestIntersect:
    @given(unions, unions)
    def test_membership_at_every_end_and_midpoint(self, a, b):
        got = a.intersect(b)
        assert is_canonical(got)
        for x in probes(a, b, got):
            assert contains(got, x) == (contains(a, x) and contains(b, x))

    @given(unions, unions)
    def test_matches_the_pairwise_intersection(self, a, b):
        # every pair of components, normalised: the union the merge must give
        pairs = []
        for alo, ahi in a.components:
            for blo, bhi in b.components:
                lo = blo if alo is None else alo if blo is None else max(alo, blo)
                hi = bhi if ahi is None else ahi if bhi is None else min(ahi, bhi)
                if lo is None or hi is None or lo <= hi:
                    pairs.append((lo, hi))
        assert a.intersect(b) == from_intervals(pairs)

    def test_rays_and_points(self):
        left = from_intervals([(None, F(0)), (F(2), F(2)), (F(5), None)])
        right = from_intervals([(F(-1), F(3)), (F(5), F(5))])
        assert left.intersect(right).components == (
            (F(-1), F(0)), (F(2), F(2)), (F(5), F(5))
        )
        line = IntervalUnion.whole_line()
        assert line.intersect(left) == left == left.intersect(line)
        assert line.intersect(line) == line
        assert left.intersect(IntervalUnion(())).is_empty

    def test_tied_ends(self):
        # a shared point, rays that touch and equal ends meet in a piece;
        # on a tie the end of the union on the left of `intersect` is kept,
        # as max and min keep their first argument, so an int stays an int
        cases = [
            (((0, 1),), ((F(1), F(2)),), ((F(1), 1),)),
            (((None, 1),), ((F(1), None),), ((F(1), 1),)),
            (((1, 3),), ((F(1), F(3)),), ((1, 3),)),
            (((0, 2), (3, None)), ((F(0), F(2)), (F(3), F(3))), ((0, 2), (3, F(3)))),
            (((None, None),), ((None, 0), (F(1), None)), ((None, 0), (F(1), None))),
        ]
        for a, b, want in cases:
            got = IntervalUnion(a).intersect(IntervalUnion(b)).components
            assert got == want
            assert [list(map(type, c)) for c in got] == [list(map(type, c)) for c in want]
