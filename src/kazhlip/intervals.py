"""Finite unions of closed rational intervals and rays on the real line.

Used to represent fixed-point sets exactly. Endpoints are Fractions;
``None`` stands for -infinity on the left and +infinity on the right.
A degenerate interval (a, a) is a single point. The constructor takes the
components as they are given: `PLHomeo.fixed_set` and `intersect` build
them canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple


def _less(q, r) -> bool:
    """q < r for ints or Fractions, by the sign of an integer
    cross-product (denominators are positive)."""
    return q.numerator * r.denominator < r.numerator * q.denominator


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, disjoint, non-adjacent closed intervals."""

    components: Tuple[Tuple[Optional[Fraction], Optional[Fraction]], ...]

    @staticmethod
    def whole_line() -> "IntervalUnion":
        return IntervalUnion(((None, None),))

    @property
    def is_empty(self) -> bool:
        return not self.components

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """One merge of the two sorted component lists. Each piece of the
        result lies in one component of each union, and two consecutive
        pieces differ in at least one, so a gap of that union separates
        them: the pieces are already sorted, disjoint and non-adjacent.

        Endpoints are ordered by the sign of an integer cross-product,
        never as Fractions; on a tie the endpoint of this union is kept."""
        a, b = self.components, other.components
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            # the larger left end and the smaller right end
            lo = alo if blo is None or (alo is not None and not _less(alo, blo)) else blo
            hi = ahi if bhi is None or (ahi is not None and not _less(bhi, ahi)) else bhi
            if lo is None or hi is None or not _less(hi, lo):
                out.append((lo, hi))
            # the component that ends first meets nothing further on
            if ahi is None or (bhi is not None and _less(bhi, ahi)):
                j += 1
            else:
                i += 1
        return IntervalUnion(tuple(out))

    def __str__(self) -> str:
        return self.format()

    def format(self, path: str = "") -> str:
        """The union as text, each endpoint printed by
        plmap.format_rational; an endpoint with more digits than Python
        prints raises ResourceLimitError naming `path`."""
        from .plmap import format_rational  # plmap imports this module

        if self.is_empty:
            return "empty"
        parts = []
        for lo, hi in self.components:
            if lo is not None and lo == hi:
                parts.append(f"{{{format_rational(lo, path)}}}")
                continue
            left = "(-inf" if lo is None else f"[{format_rational(lo, path)}"
            right = "+inf)" if hi is None else f"{format_rational(hi, path)}]"
            parts.append(f"{left}, {right}")
        return " U ".join(parts)
