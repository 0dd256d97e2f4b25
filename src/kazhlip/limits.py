"""Finite-stage diagnostics for sequences of actions whose Lipschitz
constants tend to 1.

A sequence of generator sets over a fixed label alphabet models a sequence
of actions. Each stage is normalized by a homothety so its maximal
displacement is exactly 1 (Lipschitz constants are unchanged). When the
stage maps converge with Lip -> 1, the per-word values at a base point
converge to translation numbers, and the word -> translation-number map
becomes additive; the diagnostic reports the per-stage values, Cauchy-type
convergence evidence, and exact additivity defects with their certified
bounds (Lip - 1) * |translation of the right factor|.

The ultralimit of the underlying argument is not computable; a
non-convergent input is reported as such rather than forced to a limit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, ResourceLimitError, SchemaError
from .groupact import GeneratorSet, Word, load_json, word_evaluate
from .plmap import check_exact, format_rational

DEFAULT_CAUCHY_TOL = 1e-6
LIP_TO_ONE_TOL = Fraction(1, 100)


def to_float(q: Fraction, path: str) -> float:
    """The float nearest to an exact rational. A value beyond the float
    range raises ResourceLimitError, naming the field at `path`."""
    try:
        return float(q)
    except OverflowError as exc:
        raise ResourceLimitError(f"{path}: the exact value is beyond the float range") from exc


def normalize_stage(S: GeneratorSet) -> GeneratorSet:
    """Conjugate every generator by the homothety with ratio equal to the
    current maximal displacement, so the new maximal displacement is
    exactly 1. Idempotent; Lipschitz constants are preserved."""
    alpha = S.max_displacement()
    if alpha == 0:
        raise DomainError(
            "all generators are the identity; displacement normalization undefined"
        )
    if alpha == 1:
        return S
    return GeneratorSet(
        name=S.name,
        generators=tuple(
            (lab, g.conjugate_by_homothety(alpha)) for lab, g in S.generators
        ),
        symmetric=S.symmetric,
    )


def _is_letter(label: str) -> bool:
    """True when `label` prints as a word no other word prints as: Word.parse
    reads it back as that one letter, and it is not "e", the empty word."""
    try:
        return label != "e" and Word.parse(label).letters == ((label, 1),)
    except SchemaError:  # a label such as "^-1" parses to an empty letter
        return False


@dataclass(frozen=True)
class ActionSequence:
    labels: Tuple[str, ...]
    stages: Tuple[GeneratorSet, ...]

    def __post_init__(self):
        if not self.stages:
            raise DomainError("an action sequence needs at least one stage")
        for i, label in enumerate(self.labels):
            if not _is_letter(label):
                raise DomainError(
                    f"labels[{i}]: label {label!r} must read back as a one-letter word "
                    "(no spaces, ',' or '*', no trailing ^-1 or ', and not 'e')"
                )
        for i, stage in enumerate(self.stages):
            if tuple(stage.labels) != tuple(self.labels):
                raise DomainError(
                    f"stage {i} has labels {stage.labels}, expected {self.labels}"
                )

    @staticmethod
    def from_obj(obj, path: str = "action_sequence") -> "ActionSequence":
        if not isinstance(obj, dict):
            raise SchemaError("expected an object", path)
        labels = obj.get("labels")
        stages_raw = obj.get("stages")
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise SchemaError("'labels' must be a list of strings", f"{path}.labels")
        if not isinstance(stages_raw, list) or not stages_raw:
            raise SchemaError("'stages' must be a nonempty list", f"{path}.stages")
        stages = tuple(
            GeneratorSet.from_obj(s, f"{path}.stages[{i}]")
            for i, s in enumerate(stages_raw)
        )
        try:
            return ActionSequence(tuple(labels), stages)
        except DomainError as exc:
            raise SchemaError(str(exc), path) from exc

    @staticmethod
    def from_json(text: str) -> "ActionSequence":
        return ActionSequence.from_obj(load_json(text, "action_sequence"))


@dataclass(frozen=True)
class StageRecord:
    index: int
    max_lip: Fraction
    max_disp_after_normalization: Fraction
    attaining_label: str                      # generator attaining the max displacement
    word_values: Tuple[Tuple[str, Fraction], ...]  # theta_n(w)(base), exact


@dataclass(frozen=True)
class PairDefect:
    left: str
    right: str
    estimate_defect: Fraction       # |est(vw) - est(v) - est(w)| at the last stage
    per_stage: Tuple[Tuple[int, Fraction, Fraction], ...]  # (stage, defect, bound)


@dataclass(frozen=True)
class LimitDiagnostic:
    base: Fraction
    stages: Tuple[StageRecord, ...]
    estimates: Tuple[Tuple[str, Fraction], ...]   # last-stage translation estimates
    cauchy_ok: Tuple[Tuple[str, bool], ...]
    defects: Tuple[PairDefect, ...]
    lip_to_one: Dict[str, bool]
    verdict: str

    def to_obj(self) -> dict:
        return {
            "base": format_rational(self.base, "base"),
            "verdict": self.verdict,
            "lip_to_one": dict(self.lip_to_one),
            "estimates": {w: to_float(v, f"estimates[{w!r}]") for w, v in self.estimates},
            "cauchy_ok": dict(self.cauchy_ok),
            "stages": [
                {
                    "index": rec.index,
                    "max_lip": format_rational(rec.max_lip, f"stages[{rec.index}].max_lip"),
                    "max_disp_after_normalization": format_rational(
                        rec.max_disp_after_normalization,
                        f"stages[{rec.index}].max_disp_after_normalization",
                    ),
                    "attaining_label": rec.attaining_label,
                    "word_values": {
                        w: to_float(v, f"stages[{rec.index}].word_values[{w!r}]")
                        for w, v in rec.word_values
                    },
                }
                for rec in self.stages
            ],
            "defects": [
                {
                    "left": d.left,
                    "right": d.right,
                    "estimate_defect": to_float(
                        d.estimate_defect, f"defects[{k}].estimate_defect"
                    ),
                    "per_stage": [
                        {
                            "stage": i,
                            "defect": to_float(df, f"defects[{k}].per_stage[{i}].defect"),
                            "bound": to_float(bd, f"defects[{k}].per_stage[{i}].bound"),
                        }
                        for i, df, bd in d.per_stage
                    ],
                }
                for k, d in enumerate(self.defects)
            ],
        }

    def to_csv(self) -> str:
        """One row per stage and word: its value and its distance from the
        last-stage estimate."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["stage", "word", "value", "defect_vs_estimate"])
        est = dict(self.estimates)
        for rec in self.stages:
            path = f"stages[{rec.index}]"
            for w, v in rec.word_values:
                writer.writerow([
                    rec.index,
                    w,
                    to_float(v, f"{path}.word_values[{w!r}]"),
                    to_float(abs(v - est[w]), f"{path}.defect_vs_estimate[{w!r}]"),
                ])
        return buf.getvalue()


def limit_translation_diagnostic(
    seq: ActionSequence,
    words: Sequence[Word],
    base=0,
    cauchy_tol: float = DEFAULT_CAUCHY_TOL,
) -> LimitDiagnostic:
    """Per-word translation estimates from the normalized stages, with
    convergence evidence and additivity defects for all ordered word pairs.

    Stage values theta_n(w)(base) - base are exact rationals. The sanity
    defect |theta_n(vw)(base) - theta_n(v)(theta_n(w)(base))| vanishes
    identically because composition is exact; what is reported per pair is
    the translation-additivity defect |T_n(vw) - T_n(v) - T_n(w)|, which is
    bounded by (Lip(theta_n(v)) - 1) * |T_n(w)| and tends to 0 exactly when
    the limit action is by translations."""
    if not (math.isfinite(cauchy_tol) and cauchy_tol >= 0):
        raise DomainError(f"the Cauchy tolerance must be finite and >= 0, got {cauchy_tol}")
    base = check_exact(base, "base")
    for w in words:
        for label, _ in w.letters:
            if label not in seq.labels:
                raise DomainError(f"word letter {label!r} not in alphabet {seq.labels}")

    factors = list(dict.fromkeys(words))
    pairs = [(v, w, v.concat(w)) for v in words for w in words]
    values: Dict[Word, List[Fraction]] = {}
    per_stage: List[List[Tuple[int, Fraction, Fraction]]] = [[] for _ in pairs]
    stage_records: List[StageRecord] = []
    for i, stage in enumerate(normalize_stage(s) for s in seq.stages):
        # Canonical nodes are unique, so the product v w is one compose.
        elems = {w: word_evaluate(w, stage) for w in factors}
        for v, w, vw in pairs:
            if vw not in elems:
                elems[vw] = elems[v].compose(elems[w])
        t = {w: g.evaluate(base) - base for w, g in elems.items()}
        for w, tw in t.items():
            values.setdefault(w, []).append(tw)
        # The defect bound reads the Lipschitz constants of left factors only.
        lips = {v: elems[v].lip_constant() for v in factors}
        for rows, (v, w, vw) in zip(per_stage, pairs):
            rows.append((i, abs(t[vw] - t[v] - t[w]), (lips[v] - 1) * abs(t[w])))
        lip_rows, max_lip, max_disp = stage.lipschitz_data()
        stage_records.append(
            StageRecord(
                index=i,
                max_lip=max_lip,
                max_disp_after_normalization=max_disp,
                attaining_label=next(lab for lab, _, disp in lip_rows if disp == max_disp),
                word_values=tuple((str(w), tw) for w, tw in t.items()),
            )
        )

    cauchy = tuple(
        (str(w), len(vals) >= 2 and abs(float(vals[-1] - vals[-2])) <= cauchy_tol)
        for w, vals in values.items()
    )
    defects = tuple(
        PairDefect(left=str(v), right=str(w), estimate_defect=rows[-1][1], per_stage=tuple(rows))
        for rows, (v, w, _) in zip(per_stage, pairs)
    )
    # Lipschitz constants are invariant under the normalizing conjugation.
    flags = {lab: lip - 1 <= LIP_TO_ONE_TOL for lab, lip, _ in lip_rows}
    problems = []
    if not all(flags.values()):
        bad = sorted(lab for lab, ok in flags.items() if not ok)
        problems.append(f"hypothesis lim Lip = 1 not observed for: {', '.join(bad)}")
    if not all(ok for _, ok in cauchy):
        bad = sorted(w for w, ok in cauchy if not ok)
        problems.append(f"no Cauchy convergence at tolerance {cauchy_tol} for: {', '.join(bad)}")
    verdict = "; ".join(problems) if problems else (
        "convergent; injectivity of the stage homomorphisms is assumed, not verified"
    )
    return LimitDiagnostic(
        base=base,
        stages=tuple(stage_records),
        estimates=tuple((str(w), vals[-1]) for w, vals in values.items()),
        cauchy_ok=cauchy,
        defects=defects,
        lip_to_one=flags,
        verdict=verdict,
    )
