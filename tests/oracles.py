"""Pointwise oracles that the tests read step functions and fixed sets
through. The library never evaluates a step function or a union of
intervals at a point, so these live with the tests."""

from bisect import bisect_right
from fractions import Fraction

from mpmath import mpf

from kazhlip import StepFunction


def indicator(a, b, value=1) -> StepFunction:
    """value on [a, b), zero elsewhere."""
    return StepFunction((Fraction(a), Fraction(b)), (mpf(value),))


def support(xi: StepFunction):
    return xi.breakpoints[0], xi.breakpoints[-1]


def value_at(xi: StepFunction, x) -> mpf:
    """xi's value on the piece containing x (right-continuous)."""
    if x < xi.breakpoints[0] or x >= xi.breakpoints[-1]:
        return mpf(0)
    return xi.values[bisect_right(xi.breakpoints, x) - 1]


def contains(union, x) -> bool:
    """Whether the IntervalUnion `union` holds the point x."""
    return any(
        (lo is None or lo <= x) and (hi is None or x <= hi) for lo, hi in union.components
    )
