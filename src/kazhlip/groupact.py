"""Finitely generated subgroups of the PL model: words, Cayley balls and
global fixed points."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, ResourceLimitError, SchemaError
from .intervals import IntervalUnion
from .plmap import PLHomeo, format_rational

DEFAULT_BALL_CAP = 100_000

Letter = Tuple[str, int]  # (label, +1 or -1)
LipRow = Tuple[str, Fraction, Fraction]  # (label, Lip, displacement)


def reduce_letters(letters: Sequence[Letter]) -> Tuple[Letter, ...]:
    """Freely reduce: cancel adjacent (l, e)(l, -e) pairs."""
    out: List[Letter] = []
    for label, exp in letters:
        if exp not in (1, -1):
            raise DomainError(f"letter exponent must be +-1, got {exp}")
        if out and out[-1][0] == label and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((label, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    letters: Tuple[Letter, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", reduce_letters(tuple(self.letters)))

    @classmethod
    def _reduced(cls, letters: Tuple[Letter, ...]) -> "Word":
        """The word with these letters, which must already be freely
        reduced: no reduction and no __post_init__."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse words like "a b^-1 a" or "a,b^-1" or "a*b".

        Labels are identifiers; ^-1 (or a trailing ') inverts."""
        letters: List[Letter] = []
        for tok in text.replace("*", " ").replace(",", " ").split():
            exp = 1
            if tok.endswith("^-1"):
                tok, exp = tok[:-3], -1
            elif tok.endswith("'"):
                tok, exp = tok[:-1], -1
            if not tok:
                raise SchemaError(f"empty label in word {text!r}", "word")
            letters.append((tok, exp))
        return Word(tuple(letters))

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(l if e == 1 else f"{l}^-1" for l, e in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)


def load_json(text: str, path: str):
    """The JSON value of `text`; SchemaError at `path` if it is not JSON."""
    try:
        return json.loads(text)
    except ValueError as exc:  # bad syntax, or an int over Python's digit limit
        raise SchemaError(f"invalid JSON: {exc}", path) from exc


@dataclass(frozen=True)
class GeneratorSet:
    name: str
    generators: Tuple[Tuple[str, PLHomeo], ...]
    symmetric: bool = False

    def __post_init__(self):
        labels = [label for label, _ in self.generators]
        if not labels:
            raise DomainError("generator set must be nonempty")
        if len(set(labels)) != len(labels):
            raise DomainError("generator labels must be distinct")
        if self.symmetric:
            # maps hash and compare on their nodes' integer pairs
            elems = {g for _, g in self.generators}
            for g in elems:
                if g.invert() not in elems:
                    raise DomainError(
                        "symmetric flag set but the set is not closed under inversion"
                    )

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.generators)

    def element(self, label: str) -> PLHomeo:
        for lab, g in self.generators:
            if lab == label:
                return g
        raise DomainError(f"unknown generator label {label!r}")

    def lipschitz_data(self) -> Tuple[Tuple[LipRow, ...], Fraction, Fraction]:
        """Each generator's (label, Lip, displacement), and their maxima L
        and M."""
        rows = tuple((label, g.lip_constant(), g.displacement()) for label, g in self.generators)
        return rows, max(lip for _, lip, _ in rows), max(disp for _, _, disp in rows)

    def max_lip(self) -> Fraction:
        return self.lipschitz_data()[1]

    def max_displacement(self) -> Fraction:
        return self.lipschitz_data()[2]

    # -- serialization ---------------------------------------------------

    @staticmethod
    def from_obj(obj, path: str = "generator_set") -> "GeneratorSet":
        if not isinstance(obj, dict):
            raise SchemaError("expected an object", path)
        gens_raw = obj.get("generators")
        if not isinstance(gens_raw, list) or not gens_raw:
            raise SchemaError("'generators' must be a nonempty list", f"{path}.generators")
        gens = []
        for i, g in enumerate(gens_raw):
            gpath = f"{path}.generators[{i}]"
            if not isinstance(g, dict) or "label" not in g or "map" not in g:
                raise SchemaError("expected {label, map}", gpath)
            if not isinstance(g["label"], str):
                raise SchemaError("'label' must be a string", f"{gpath}.label")
            gens.append((g["label"], PLHomeo.from_obj(g["map"], f"{gpath}.map")))
        symmetric = obj.get("symmetric", False)
        if not isinstance(symmetric, bool):
            raise SchemaError("'symmetric' must be true or false", f"{path}.symmetric")
        name = obj.get("name", "unnamed")
        if not isinstance(name, str):
            raise SchemaError("'name' must be a string", f"{path}.name")
        try:
            return GeneratorSet(
                name=name,
                generators=tuple(gens),
                symmetric=symmetric,
            )
        except DomainError as exc:
            raise SchemaError(str(exc), path) from exc

    @staticmethod
    def from_json(text: str) -> "GeneratorSet":
        return GeneratorSet.from_obj(load_json(text, "generator_set"))


def lipschitz_obj(per_generator: Sequence[LipRow], L, M) -> dict:
    """The exact strings of `GeneratorSet.lipschitz_data`, as `bound` and
    `lip` print them."""
    return {
        "per_generator": [
            {
                "label": lab,
                "lip": format_rational(lip, f"per_generator[{i}].lip"),
                "displacement": format_rational(disp, f"per_generator[{i}].displacement"),
            }
            for i, (lab, lip, disp) in enumerate(per_generator)
        ],
        "L": format_rational(L, "L"),
        "M": format_rational(M, "M"),
    }


def word_evaluate(w: Word, S: GeneratorSet) -> PLHomeo:
    """Exact product of generators in word order (leftmost acts last)."""
    acc = PLHomeo.identity()
    for label, exp in w.letters:
        g = S.element(label)
        if exp == -1:
            g = g.invert()
        acc = acc.compose(g)
    return acc


def ball(
    S: GeneratorSet, radius: int, cap: int = DEFAULT_BALL_CAP
) -> List[Tuple[PLHomeo, Word]]:
    """All products of at most `radius` generators/inverses, deduplicated by
    canonical form, each with a shortest representing word, in the
    breadth-first order of the search: by word length, and within a length
    in the order the elements were reached."""
    if not isinstance(radius, int) or radius < 0:
        raise DomainError(f"radius must be an int >= 0, got {radius!r}")
    steps: List[Tuple[Letter, PLHomeo]] = []
    for label, g in S.generators:
        steps.append(((label, 1), g))
        steps.append(((label, -1), g.invert()))

    ident = PLHomeo.identity()
    entries: List[Tuple[PLHomeo, Word]] = [(ident, Word(()))]
    # each element's position in entries, keyed by the numerators and
    # denominators of its canonical nodes: one lookup per product, and a
    # tuple of ints hashes and compares without a Fraction
    index: Dict[tuple, int] = {ident._int_key(): 0}
    frontier = entries[:]
    for _ in range(radius):
        nxt = []
        for elem, word in frontier:
            # the inverse of the word's last letter leads back to its parent;
            # every other letter extends the reduced word to a reduced word
            back = (word.letters[-1][0], -word.letters[-1][1]) if word.letters else None
            for letter, g in steps:
                if letter == back:
                    continue
                new = elem.compose(g)
                size = len(entries)
                if index.setdefault(new._int_key(), size) < size:
                    continue  # seen before
                if size >= cap:
                    raise ResourceLimitError(
                        f"ball size exceeded the cap of {cap} elements"
                    )
                entry = (new, Word._reduced(word.letters + (letter,)))
                entries.append(entry)
                nxt.append(entry)
        frontier = nxt
    return entries


def global_fixed_set(S: GeneratorSet) -> IntervalUnion:
    """Intersection of the generators' fixed sets. A point fixed by every
    generator is fixed by every word, so this is the whole group's fixed
    set; an empty result certifies the no-global-fixed-point hypothesis."""
    out = IntervalUnion.whole_line()
    for _, g in S.generators:
        out = out.intersect(g.fixed_set())
        if out.is_empty:
            break
    return out
