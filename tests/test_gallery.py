"""Named groups as exact oracles: facts about them that come from outside
the package, checked on the inputs of tests/golden/gallery, whose CLI
outputs the golden runner compares.

Thompson's group F acts on R by x0 = the translation by -1 and x1 = the
identity on x <= 0, x/2 on [0, 2] and x - 1 on x >= 2. Its sphere sizes in
these generators were computed here; they agree with the growth counts of
F in Guba (2004) and in Elder, Fusy and Rechnitzer, "Counting elements and
geodesics in Thompson's group F" (2010), which serve as a cross-check.
"""

import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from kazhlip import GeneratorSet, PLHomeo, Word, ball, global_fixed_set, groupact, word_evaluate

GALLERY = Path(__file__).parent / "golden" / "gallery" / "inputs"
THOMPSON_F = GeneratorSet.from_json((GALLERY / "thompson_F.json").read_text())
BUMPS = GeneratorSet.from_json((GALLERY / "commuting_bumps.json").read_text())

F_SPHERES = [1, 4, 12, 36, 108, 314, 906, 2576, 7280]


def inverse(text: str) -> str:
    """The word `text` of Word.parse, inverted."""
    return " ".join(
        tok[:-3] if tok.endswith("^-1") else f"{tok}^-1" for tok in reversed(text.split())
    )


# The Fraction methods behind every comparison (<, <=, >, >=), equality
# test and hash; a Fraction rich comparison goes through _richcmp.
FRACTION_ORDER = ("_richcmp", "__eq__", "__hash__")
# The Fraction methods behind a + b and a - b, with a Fraction on either side.
FRACTION_SUMS = ("__add__", "__radd__", "__sub__", "__rsub__")


def counted(calls, name, f):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def f_ball():
    """ball(F, 8), and the compose calls, word reductions, Fraction
    constructions, Fraction sums and differences, and Fraction comparisons,
    equality tests and hashes it took."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PLHomeo, "compose", counted(calls, "compose", PLHomeo.compose))
        reduce = groupact.reduce_letters
        mp.setattr(groupact, "reduce_letters", counted(calls, "reduce_letters", reduce))
        mp.setattr(F, "__new__", counted(calls, "Fraction", F.__new__))
        for name in FRACTION_ORDER + FRACTION_SUMS:
            mp.setattr(F, name, counted(calls, name, getattr(F, name)))
        elems = ball(THOMPSON_F, 8)
    return elems, calls


CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="fractions builds its results differently in other versions",
)


class TestThompsonF:
    def test_generators(self):
        x0, x1 = (g for _, g in THOMPSON_F.generators)
        assert x0 == PLHomeo.translation(-1)
        assert [x1(x) for x in (-3, 0, 1, 2, 5)] == [-3, 0, F(1, 2), 1, 4]

    @pytest.mark.parametrize("conj", ["x0^-1 x1 x0", "x0^-1 x0^-1 x1 x0 x0"])
    def test_defining_relations(self, conj):
        # [x0 x1^-1, x0^-k x1 x0^k] = 1 for k = 1, 2
        a, b = "x0 x1^-1", conj
        w = Word.parse(f"{a} {b} {inverse(a)} {inverse(b)}")
        assert word_evaluate(w, THOMPSON_F) == PLHomeo.identity()

    def test_not_abelian(self):
        w = Word.parse("x0 x1 x0^-1 x1^-1")
        assert word_evaluate(w, THOMPSON_F) != PLHomeo.identity()

    def test_no_global_fixed_point(self):
        assert global_fixed_set(THOMPSON_F).is_empty

    def test_lipschitz_data(self):
        rows, L, M = THOMPSON_F.lipschitz_data()
        assert rows == (("x0", 1, 1), ("x1", 2, 1))
        assert (L, M) == (2, 1)

    def test_sphere_sizes_to_radius_8(self, f_ball):
        elems, _ = f_ball
        sizes = Counter(len(word) for _, word in elems)
        assert [sizes[r] for r in range(9)] == F_SPHERES
        assert len(elems) == sum(F_SPHERES) == 11237

    def test_ball_compose_budget(self, f_ball):
        # 4 steps from the identity, 3 from each other element inside radius 7
        elems, calls = f_ball
        assert calls["compose"] == 4 + 3 * (sum(F_SPHERES[:8]) - 1) == 11872

    def test_ball_reduces_no_word(self, f_ball):
        # each new word extends a reduced word by a letter that does not
        # cancel, so only the identity's empty word may go through
        # reduce_letters
        _, calls = f_ball
        assert calls["reduce_letters"] <= 1

    @CPYTHON_311
    def test_ball_fraction_budget(self, f_ball):
        # the exact kernel builds each value, slope and root as one
        # normalised Fraction, with no intermediate
        _, calls = f_ball
        assert calls["Fraction"] == 51799

    @CPYTHON_311
    def test_ball_orders_on_integers(self, f_ball):
        # evaluation, the node merge and the dedup index compare and hash
        # integer cross-products and int tuples, never a Fraction
        _, calls = f_ball
        assert {name: calls[name] for name in FRACTION_ORDER} == dict.fromkeys(FRACTION_ORDER, 0)

    @CPYTHON_311
    def test_ball_shifts_on_integers(self, f_ball):
        # composing with a translation shifts each node by one
        # Fraction(num, den) of integer cross-products, with no Fraction
        # sum or difference
        _, calls = f_ball
        assert {name: calls[name] for name in FRACTION_SUMS} == dict.fromkeys(FRACTION_SUMS, 0)


class TestCommutingBumps:
    def test_commute(self):
        a, b = (g for _, g in BUMPS.generators)
        assert a.compose(b) == b.compose(a) != PLHomeo.identity()

    def test_ball_is_z2(self):
        # in Z^2 the sphere of radius r has 4r elements
        sizes = Counter(len(word) for _, word in ball(BUMPS, 4))
        assert [sizes[r] for r in range(5)] == [1, 4, 8, 12, 16]
