import itertools
import json
from fractions import Fraction as F

import pytest

from kazhlip import (
    DomainError,
    GeneratorSet,
    IntervalUnion,
    PLHomeo,
    ResourceLimitError,
    SchemaError,
    Word,
    ball,
    global_fixed_set,
    word_evaluate,
)
from oracles import from_intervals, set_obj

BUMP_A = PLHomeo.from_pairs([(0, 0), (1, F(3, 2)), (2, 2)])
BUMP_B = PLHomeo.from_pairs([(5, 5), (6, F(13, 2)), (7, 7)])
T1 = PLHomeo.translation(1)


def gens(*pairs, name="test", symmetric=False):
    return GeneratorSet(name, tuple(pairs), symmetric=symmetric)


class TestWord:
    def test_free_reduction(self):
        w = Word((("a", 1), ("a", -1), ("b", 1)))
        assert w.letters == (("b", 1),)

    def test_parse(self):
        assert Word.parse("a b^-1 a").letters == (("a", 1), ("b", -1), ("a", 1))
        assert Word.parse("a a'").letters == ()

    def test_reduction_does_not_change_element(self):
        S = gens(("a", BUMP_A), ("b", T1))
        raw = Word((("a", 1), ("b", 1), ("b", -1), ("a", 1)))
        red = Word((("a", 1), ("a", 1)))
        assert word_evaluate(raw, S) == word_evaluate(red, S)


class TestWordEvaluate:
    def test_empty_word(self):
        S = gens(("a", BUMP_A))
        assert word_evaluate(Word(()), S) == PLHomeo.identity()

    def test_cancellation(self):
        S = gens(("a", BUMP_A))
        assert word_evaluate(Word((("a", 1), ("a", -1))), S) == PLHomeo.identity()

    def test_translation_cube(self):
        S = gens(("a", T1))
        w = Word((("a", 1),) * 3)
        assert word_evaluate(w, S) == PLHomeo.translation(3)

    def test_unknown_label(self):
        S = gens(("a", T1))
        with pytest.raises(DomainError):
            word_evaluate(Word((("z", 1),)), S)


class TestBall:
    def test_radius_zero(self):
        S = gens(("a", BUMP_A))
        elems = ball(S, 0)
        assert len(elems) == 1 and elems[0][0] == PLHomeo.identity()

    def test_z_ball(self):
        S = gens(("t", T1))
        assert len(ball(S, 2)) == 5  # id, t^{+-1}, t^{+-2}

    def test_z2_ball_commuting_bumps(self):
        S = gens(("a", BUMP_A), ("b", BUMP_B))
        elems = ball(S, 2)
        # brute-force oracle over all words of length <= 2
        letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
        seen = {PLHomeo.identity().nodes}
        for length in (1, 2):
            for combo in itertools.product(letters, repeat=length):
                seen.add(word_evaluate(Word(combo), S).nodes)
        assert len(elems) == len(seen) == 13

    def test_monotone_in_radius(self):
        S = gens(("a", BUMP_A), ("t", T1))
        small = {e.nodes for e, _ in ball(S, 2)}
        large = {e.nodes for e, _ in ball(S, 3)}
        assert small <= large

    def test_words_are_shortest(self):
        S = gens(("t", T1))
        for elem, word in ball(S, 3):
            c = elem.evaluate(0)
            assert len(word) == abs(c)

    def test_cap(self):
        S = gens(("a", BUMP_A), ("b", BUMP_B), ("t", T1))
        with pytest.raises(ResourceLimitError):
            ball(S, 4, cap=10)

    def test_cap_is_the_largest_ball_size(self):
        # a cap equal to the ball's size holds it; one less does not
        S = gens(("a", BUMP_A), ("t", T1))
        size = len(ball(S, 3))
        assert len(ball(S, 3, cap=size)) == size
        with pytest.raises(ResourceLimitError):
            ball(S, 3, cap=size - 1)

    def test_int_and_fraction_nodes_are_one_element(self):
        # the same bump with int nodes and with Fraction nodes: the dedup
        # key compares values, as the node tuples do
        ints = PLHomeo(((0, 0), (2, 3), (4, 4)))
        fracs = PLHomeo(((F(0), F(0)), (F(2), F(3)), (F(4), F(4))))
        assert ints.nodes == fracs.nodes and type(ints.nodes[1][0]) is int
        elems = ball(gens(("a", ints), ("b", fracs)), 2)
        assert [str(w) for _, w in elems] == ["e", "a", "a^-1", "a a", "a^-1 a^-1"]

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            ball(gens(("t", T1)), -1)

    def test_no_step_back_to_the_parent(self, monkeypatch):
        S = gens(("a", BUMP_A), ("t", T1))
        steps = [
            (("a", 1), BUMP_A), (("a", -1), BUMP_A.invert()), (("t", 1), T1), (("t", -1), T1.invert())
        ]
        # oracle: breadth-first search that composes every element with every step
        seen = {PLHomeo.identity().nodes: (PLHomeo.identity(), Word(()))}
        frontier = list(seen.values())
        for _ in range(4):
            nxt = []
            for elem, word in frontier:
                for letter, g in steps:
                    new = elem.compose(g)
                    if new.nodes not in seen:
                        seen[new.nodes] = (new, Word(word.letters + (letter,)))
                        nxt.append(seen[new.nodes])
            frontier = nxt
        want = list(seen.values())

        calls = []
        compose = PLHomeo.compose

        def counting(f, g):
            calls.append((f, g))
            return compose(f, g)

        monkeypatch.setattr(PLHomeo, "compose", counting)
        got = ball(S, 4)
        assert [(e.nodes, w.letters) for e, w in got] == [(e.nodes, w.letters) for e, w in want]
        # the identity takes all four steps; every other element inside
        # radius 3 skips the one that undoes its last letter
        inner = sum(1 for _, w in got if 0 < len(w) < 4)
        assert len(calls) == 4 + 3 * inner


class TestGlobalFixedSet:
    def test_identity_only(self):
        S = gens(("e", PLHomeo.identity()))
        assert global_fixed_set(S) == IntervalUnion.whole_line()

    def test_translation_kills_everything(self):
        S = gens(("t", T1), ("a", BUMP_A))
        assert global_fixed_set(S).is_empty

    def test_disjoint_bumps(self):
        S = gens(("a", BUMP_A), ("b", BUMP_B))
        expected = from_intervals(
            [(None, F(0)), (F(2), F(5)), (F(7), None)]
        )
        assert global_fixed_set(S) == expected


class TestGeneratorSet:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            gens(("a", T1), ("a", BUMP_A))

    def test_symmetric_flag_checked(self):
        with pytest.raises(DomainError):
            gens(("t", T1), symmetric=True)
        S = gens(("t", T1), ("T", T1.invert()), symmetric=True)
        assert S.symmetric

    def test_json_round_trip(self):
        S = gens(("a", BUMP_A), ("t", T1), name="roundtrip")
        again = GeneratorSet.from_json(json.dumps(set_obj(S)))
        assert again == S

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_symmetric_must_be_boolean(self, flag):
        S = gens(("t", T1), ("T", T1.invert()))
        obj = dict(set_obj(S), symmetric=flag)
        with pytest.raises(SchemaError) as err:
            GeneratorSet.from_obj(obj)
        assert "generator_set.symmetric" in str(err.value)

    def test_name_must_be_string(self):
        obj = set_obj(gens(("t", T1)))
        del obj["name"]
        assert GeneratorSet.from_obj(obj).name == "unnamed"
        for name in (None, 3, ["x"]):
            with pytest.raises(SchemaError) as err:
                GeneratorSet.from_obj(dict(obj, name=name))
            assert "generator_set.name" in str(err.value)

    def test_schema_error_has_field_path(self):
        bad = json.dumps({"name": "x", "generators": [{"label": "a"}]})
        with pytest.raises(SchemaError) as err:
            GeneratorSet.from_json(bad)
        assert "generators[0]" in str(err.value)
