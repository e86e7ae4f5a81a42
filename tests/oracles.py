"""Slow independent constructions that the tests hold the library to."""

from functools import lru_cache

from qlucas.intpoly import IntPolynomial, monomial


def divide_monic(a: IntPolynomial, m: IntPolynomial) -> IntPolynomial:
    """a / m by schoolbook long division for a monic m; asserts it is exact."""
    assert m.is_monic(), m
    dm = len(m.coeffs) - 1
    rem = list(a.coeffs)
    quo = [0] * max(len(rem) - dm, 0)
    for i in range(len(rem) - 1, dm - 1, -1):
        c = quo[i - dm] = rem[i]
        for j, mj in enumerate(m.coeffs):
            rem[i - dm + j] -= c * mj
    assert not any(rem), f"{a} is not divisible by {m}"
    return IntPolynomial(quo)


@lru_cache(maxsize=None)
def cyclotomic_by_division(b: int) -> IntPolynomial:
    """q^b - 1 divided by the cyclotomic polynomials of the proper divisors of b."""
    poly = monomial(b) - 1
    for d in range(1, b):
        if b % d == 0:
            poly = divide_monic(poly, cyclotomic_by_division(d))
    return poly
