"""Working-precision control for all non-rational (real) arithmetic.

Breakpoints, slopes and displacements are exact rationals throughout the
package; only step-function values, norms and bound functions live in
floating point. Those use mpmath at a configurable number of significant
decimal digits, never below 15. Importing this module sets 30 digits;
`set_precision` or a `precision(...)` scope changes them. Only the CLI reads
the environment variable KAZHLIP_PRECISION.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import from_rational

# The digit rules need no mpmath; they live in errors and are re-exported here.
from .errors import DEFAULT_DIGITS, MIN_DIGITS, DomainError, check_digits

# The rounding direction of the reals that the package rounds itself:
# to_real, and the window estimator's libmp arithmetic in koopman. To
# nearest, as mpf arithmetic in mpmath's default context rounds.
ROUNDING = "n"


def set_precision(digits: int) -> None:
    mpmath.mp.dps = check_digits(digits)


@contextmanager
def precision(digits: int):
    old = mpmath.mp.dps
    set_precision(digits)
    try:
        yield
    finally:
        mpmath.mp.dps = old


def to_real(x) -> mpf:
    """Convert an exact rational / int / float / mpf to mpf at the
    current working precision, rounded once to nearest."""
    if isinstance(x, Fraction):
        rounded = from_rational(x.numerator, x.denominator, mpmath.mp.prec, ROUNDING)
        return mpmath.mp.make_mpf(rounded)
    return mpf(x)


def read_real(x, name: str) -> mpf:
    """to_real(x) for a caller's argument `name`: a value that mpf cannot
    read raises DomainError naming it."""
    try:
        return to_real(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{name}: expected a real, got {repr(x)[:40]}") from exc


def real_str(x) -> str:
    """Decimal string at the configured number of significant digits."""
    return mpmath.nstr(mpf(x), mpmath.mp.dps, strip_zeros=False)


set_precision(DEFAULT_DIGITS)
