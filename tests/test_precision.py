import random
from fractions import Fraction as F

import mpmath
import pytest
from mpmath.libmp import to_rational

from kazhlip.precision import precision, to_real


def nearest(q: F, bits: int) -> F:
    """The `bits`-bit binary float nearest to q, ties to an even mantissa,
    in exact integer arithmetic."""
    if q == 0:
        return F(0)
    a = abs(q)
    e = a.numerator.bit_length() - a.denominator.bit_length() - bits
    while a / F(2) ** e >= 2**bits:
        e += 1
    while a / F(2) ** e < 2 ** (bits - 1):
        e -= 1
    m = round(a / F(2) ** e)  # Fraction rounds half to even
    return (m if q > 0 else -m) * F(2) ** e


def exact(x) -> F:
    return F(*to_rational(x._mpf_))


class TestToReal:
    @pytest.mark.parametrize("digits", [15, 30, 40])
    def test_big_fractions_round_once(self, digits):
        # Rounding the numerator and denominator before dividing misses the
        # nearest float for about a third of these at 30 digits.
        rng = random.Random(20240703)
        with precision(digits):
            for _ in range(300):
                num = rng.getrandbits(rng.randint(100, 300)) * rng.choice((1, -1))
                q = F(num, rng.getrandbits(rng.randint(100, 300)) | 1)
                assert exact(to_real(q)) == nearest(q, mpmath.mp.prec), q

    def test_ties_go_to_even(self):
        with precision(15):
            bits = mpmath.mp.prec
            for m in (2**bits + 1, 2**bits + 3):  # halfway between two floats
                for q in (F(m, 2), F(-m, 2 ** (bits + 7))):
                    assert exact(to_real(q)) == nearest(q, bits)

    def test_small_parts_are_unchanged(self):
        for q in (F(1, 3), F(-22, 7), F(5), F(0), F(-1, 2**70)):
            assert to_real(q) == mpmath.mpf(q.numerator) / q.denominator
