"""The seeded generators of kazhlip.verify: draw for draw the maps and step
functions of their sorted-set references in oracles, ordered on ints, with
no Fraction compared, tested for equality or hashed."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from kazhlip import verify
from kazhlip.verify import _distinct_rationals, random_plhomeo, random_step_function
from test_gallery import CPYTHON_311, FRACTION_ORDER

SEEDS = range(500)
# (max_nodes, max_mag); at max_mag 1 and 2 the draws often repeat, and the
# generators draw again until they have enough distinct values
MAP_SIZES = [(8, 1000), (5, 60), (4, 40), (20, 1000), (3, 2), (8, 1)]
STEP_MAGS = [50, 10, 1]


def typed(values):
    return [(v, type(v)) for v in values]


def counting_draws(monkeypatch):
    """The values the oracles draw, one list per call: the oracles' copy of
    random_rational, wrapped."""
    draws = []

    def counted(rng, max_mag=1000):
        draws[-1].append(verify.random_rational(rng, max_mag))
        return draws[-1][-1]

    monkeypatch.setattr(oracles, "random_rational", counted)
    return draws


@pytest.mark.parametrize("max_nodes,max_mag", MAP_SIZES)
def test_maps_match_the_sorted_set_draw(monkeypatch, max_nodes, max_mag):
    draws = counting_draws(monkeypatch)
    topped_up = 0
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        k = random.Random(seed).randint(1, max_nodes)
        draws.append([])
        want = oracles.random_plhomeo(ref, max_nodes, max_mag)
        got = random_plhomeo(rng, max_nodes, max_mag)
        assert typed(v for node in got.nodes for v in node) == typed(
            v for node in want.nodes for v in node
        )
        assert rng.getstate() == ref.getstate()
        # k draws for xs, then one per distinct x, then the top-up
        topped_up += len(draws[-1]) > k + len(set(draws[-1][:k]))
    if max_mag <= 2:
        assert topped_up


@pytest.mark.parametrize("max_mag", STEP_MAGS)
def test_step_functions_match_the_sorted_set_draw(monkeypatch, max_mag):
    draws = counting_draws(monkeypatch)
    topped_up = 0
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        k = random.Random(seed).randint(1, 6)
        draws.append([])
        want = oracles.random_step_function(ref, max_mag=max_mag)
        got = random_step_function(rng, max_mag=max_mag)
        assert typed(got.breakpoints) == typed(want.breakpoints)
        assert [v._mpf_ for v in got.values] == [v._mpf_ for v in want.values]
        assert rng.getstate() == ref.getstate()
        topped_up += len(draws[-1]) > k + 1
    if max_mag == 1:
        assert topped_up


def test_top_up_draws_until_enough():
    # max_mag 1 has the three values -1, 0 and 1
    assert _distinct_rationals(random.Random(0), 0, 1, 3) == [-1, 0, 1]


@CPYTHON_311
def test_draws_order_on_integers(monkeypatch):
    # the sorted-set draw made 6,340 rich comparisons, 3 equality tests
    # and 4,043 hashes here
    calls = Counter()
    for name in FRACTION_ORDER:
        method = getattr(F, name)

        def counted(*args, method=method, name=name):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(F, name, counted)
    rng = random.Random(verify.DEFAULT_SEED)
    for _ in range(300):
        random_plhomeo(rng)
        random_step_function(rng)
    assert {name: calls[name] for name in FRACTION_ORDER} == dict.fromkeys(FRACTION_ORDER, 0)


class Draws:
    """A stand-in for random.Random whose randrange returns the given
    numbers in turn, each inside the range asked for."""

    def __init__(self, numbers):
        self.numbers = iter(numbers)

    def randrange(self, start, stop):
        n = next(self.numbers)
        assert start <= n < stop
        return n


BIG = 10**9
numerators = st.integers(-BIG, BIG)
denominators = st.integers(1, BIG)


@st.composite
def close_draws(draw):
    """Draws a/b, with some c/d next to one of them: within 1/(b d) or
    so, where the floats c / d and a / b often tie."""
    pairs = draw(st.lists(st.tuples(numerators, denominators), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(pairs))
        d = draw(denominators)
        c = min(max(a * d // b + draw(st.integers(-1, 1)), -BIG), BIG)
        pairs.insert(draw(st.integers(0, len(pairs))), (c, d))
    return pairs


@given(close_draws())
@example([(999999999, 10**9), (999999998, 999999999)])
def test_integer_key_orders_as_fractions(pairs):
    got = _distinct_rationals(Draws(n for pair in pairs for n in pair), len(pairs), BIG, 1)
    assert typed(got) == typed(sorted({F(a, b) for a, b in pairs}))


@CPYTHON_311
def test_group_law_cases_compare_on_integers(monkeypatch):
    # the exact-group benchmark's cases; map equality went through
    # Fraction.__eq__ node by node, 3,210 calls here. What is left is the
    # Lip check of each group-law case and the Lip and displacement checks
    # of each homothety case, 3 per s, and the one alpha <= 0 per case in
    # conjugate_by_homothety.
    calls = Counter()
    for name in FRACTION_ORDER:
        method = getattr(F, name)

        def counted(*args, method=method, name=name):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(F, name, counted)
    for s in range(100):
        results = verify.suite_group_axioms(1, s) + verify.suite_homothety(1, s)
        assert all(failures == 0 for _, _, failures, _ in results)
    assert {name: calls[name] for name in FRACTION_ORDER} == {
        "_richcmp": 100, "__eq__": 300, "__hash__": 0,
    }
