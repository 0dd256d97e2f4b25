import json
from fractions import Fraction as F

import pytest

from kazhlip import (
    ActionSequence,
    DomainError,
    GeneratorSet,
    PLHomeo,
    Word,
    limit_translation_diagnostic,
    normalize_stage,
)
from oracles import set_obj

G = Word((("g", 1),))


def stage(n, name=None):
    """The shrinking family: nodes (0, 1 + 1/n), (1, 2); Lip = n/(n-1)."""
    g = PLHomeo.from_pairs([(0, 1 + F(1, n)), (1, 2)])
    return GeneratorSet(name or f"stage{n}", (("g", g),))


def translation_stage(c):
    return GeneratorSet(f"t{c}", (("g", PLHomeo.translation(c)),))


class TestNormalizeStage:
    def test_single_translation(self):
        out = normalize_stage(translation_stage(2))
        assert out.element("g") == PLHomeo.translation(1)

    def test_already_normalized_unchanged(self):
        S = translation_stage(1)
        assert normalize_stage(S) is S

    def test_idempotent(self):
        S = stage(4)
        once = normalize_stage(S)
        assert normalize_stage(once) == once
        assert once.max_displacement() == 1

    def test_two_generators(self):
        S = GeneratorSet(
            "two",
            (
                ("a", PLHomeo.translation(3)),
                ("b", PLHomeo.from_pairs([(0, 0), (1, 2), (3, 3)])),
            ),
        )
        out = normalize_stage(S)
        assert out.element("a").displacement() == 1
        assert out.element("b").displacement() == F(1, 3)
        assert out.element("a").lip_constant() == S.element("a").lip_constant()
        assert out.element("b").lip_constant() == S.element("b").lip_constant()

    def test_all_identity_rejected(self):
        S = GeneratorSet("triv", (("e", PLHomeo.identity()),))
        with pytest.raises(DomainError):
            normalize_stage(S)


class TestLipTrend:
    def test_translations_all_one(self):
        seq = ActionSequence(("g",), tuple(translation_stage(c) for c in (1, 2, 3)))
        assert [stage.max_lip() for stage in seq.stages] == [1, 1, 1]

    def test_shrinking_family(self):
        ns = [2**k for k in range(1, 13)]
        seq = ActionSequence(("g",), tuple(stage(n) for n in ns))
        lips = [stage.max_lip() for stage in seq.stages]
        assert lips == [F(n, n - 1) for n in ns]
        assert all(a > b for a, b in zip(lips, lips[1:]))

    def test_alphabet_mismatch(self):
        with pytest.raises(DomainError):
            ActionSequence(("g",), (translation_stage(1), GeneratorSet(
                "other", (("h", PLHomeo.translation(1)),)
            )))


class TestLimitDiagnostic:
    def test_constant_translations_exact(self):
        seq = ActionSequence(("g",), tuple(translation_stage(F(3, 2)) for _ in range(4)))
        diag = limit_translation_diagnostic(seq, [G, G.concat(G)])
        est = dict(diag.estimates)
        # normalization rescales the translation to 1
        assert est["g"] == 1
        assert est["g g"] == 2
        assert all(d.estimate_defect == 0 for d in diag.defects)
        assert "convergent" in diag.verdict

    def test_shrinking_family_converges(self):
        seq = ActionSequence(("g",), tuple(stage(2**k) for k in range(1, 13)))
        diag = limit_translation_diagnostic(seq, [G], cauchy_tol=1e-3)
        est = dict(diag.estimates)
        assert est["g"] == 1  # exact after normalization
        assert abs(est["g g"] - 2) <= F(1, 1000)
        (defect,) = [d for d in diag.defects if (d.left, d.right) == ("g", "g")]
        assert defect.estimate_defect == F(1, 4097)
        # per-stage defect bounded by (Lip - 1) * |T(w)|, and bound -> 0
        bounds = [bound for _, _, bound in defect.per_stage]
        assert all(df <= bd for _, df, bd in defect.per_stage)
        assert bounds[-1] < bounds[0]

    def test_stage_records(self):
        seq = ActionSequence(("g",), tuple(stage(2**k) for k in range(1, 5)))
        diag = limit_translation_diagnostic(seq, [G])
        for rec in diag.stages:
            assert rec.max_disp_after_normalization == 1
            assert rec.attaining_label == "g"

    def test_attaining_label_is_first_maximum(self):
        # a and c both move points by 2, b by 1: the record names whichever
        # of a and c comes first in the set
        maps = {"a": PLHomeo.translation(2), "b": PLHomeo.translation(-1),
                "c": PLHomeo.translation(-2)}
        for order, first in (("abc", "a"), ("cba", "c"), ("bca", "c")):
            S = GeneratorSet("s", tuple((lab, maps[lab]) for lab in order))
            seq = ActionSequence(tuple(order), (S,))
            diag = limit_translation_diagnostic(seq, [Word.parse("a")])
            assert diag.stages[0].attaining_label == first

    def test_lip_not_tending_to_one_flagged(self):
        bad = PLHomeo.from_pairs([(0, 0), (1, 3)])  # Lip 3 at every stage
        seq = ActionSequence(
            ("g",), tuple(GeneratorSet(f"s{i}", (("g", bad),)) for i in range(3))
        )
        diag = limit_translation_diagnostic(seq, [G])
        assert not diag.lip_to_one["g"]
        assert "lim Lip = 1 not observed" in diag.verdict

    def test_sanity_defect_identically_zero(self):
        # theta_n(vw)(x) == theta_n(v)(theta_n(w)(x)) holds exactly
        seq = ActionSequence(("g",), tuple(stage(2**k) for k in range(1, 5)))
        from kazhlip.groupact import word_evaluate

        for S in (normalize_stage(s) for s in seq.stages):
            v = word_evaluate(G, S)
            vw = word_evaluate(G.concat(G), S)
            assert vw.evaluate(0) == v.evaluate(v.evaluate(0))

    def test_unknown_letter(self):
        seq = ActionSequence(("g",), (translation_stage(1),))
        with pytest.raises(DomainError):
            limit_translation_diagnostic(seq, [Word((("z", 1),))])

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
    def test_tolerance_outside_domain(self, tol):
        seq = ActionSequence(("g",), (translation_stage(1), translation_stage(2)))
        with pytest.raises(DomainError, match="tolerance"):
            limit_translation_diagnostic(seq, [G], cauchy_tol=tol)

    def test_json_round_trip(self):
        seq = ActionSequence(("g",), tuple(stage(2**k) for k in range(1, 4)))
        obj = {"labels": list(seq.labels), "stages": [set_obj(s) for s in seq.stages]}
        again = ActionSequence.from_json(json.dumps(obj))
        assert again == seq


class TestLabels:
    def two_label_seq(self, label):
        half = PLHomeo.translation(F(1, 2))
        S = GeneratorSet("s", (("g", PLHomeo.translation(1)), (label, half)))
        return ActionSequence(("g", label), (S,))

    @pytest.mark.parametrize("label", ["g g", "e", "g^-1", "h'", "a,b", "a*b", "^-1", ""])
    def test_label_not_read_back_rejected(self, label):
        # "g g" would print like the product g g, and "e" like the empty word.
        with pytest.raises(DomainError, match=r"labels\[1\]"):
            self.two_label_seq(label)

    def test_identifier_labels_accepted(self):
        assert self.two_label_seq("h_2").labels == ("g", "h_2")
