"""Slow independent constructions that the tests hold the library to."""

from functools import lru_cache

from qlucas.intpoly import (
    ONE,
    ZERO,
    IntPolynomial,
    NotDivisible,
    cyclotomic,
    reduce_mod_cyclotomic,
)
from qlucas.relations import (
    RelationCandidate,
    _bareiss_echelon,
    _clear_row,
    _monomials,
    _normalize,
    _nullspace_vector,
    _power_products,
    _rows,
)


def monomial(k: int, c: int = 1) -> IntPolynomial:
    """c * q**k for k >= 0."""
    assert k >= 0, k
    return IntPolynomial((0,) * k + (c,))


def is_monic(p: IntPolynomial) -> bool:
    """Whether p is nonzero with leading coefficient 1."""
    return bool(p.coeffs) and p.coeffs[-1] == 1


def q_integer(n: int) -> IntPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    return IntPolynomial((1,) * n)


def q_factorial(n: int) -> IntPolynomial:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = ONE
    for k in range(2, n + 1):
        out = out * q_integer(k)
    return out


def congruent_mod_cyclotomic(a: IntPolynomial, b: IntPolynomial, m: int) -> bool:
    """Whether a == b modulo the m-th cyclotomic polynomial."""
    return reduce_mod_cyclotomic(a - b, m).is_zero()


def long_division(a: IntPolynomial, m: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """(quotient, remainder) of a by a monic m, by schoolbook long division."""
    assert is_monic(m), m
    dm = len(m.coeffs) - 1
    rem = list(a.coeffs)
    quo = [0] * max(len(rem) - dm, 0)
    for i in range(len(rem) - 1, dm - 1, -1):
        c = quo[i - dm] = rem[i]
        for j, mj in enumerate(m.coeffs):
            rem[i - dm + j] -= c * mj
    return IntPolynomial(quo), IntPolynomial(rem)


def divide_monic(a: IntPolynomial, m: IntPolynomial) -> IntPolynomial:
    """a / m for a monic m; asserts it is exact."""
    quo, rem = long_division(a, m)
    assert not rem, f"{a} is not divisible by {m}"
    return quo


def rem_monic(a: IntPolynomial, m: IntPolynomial) -> IntPolynomial:
    """Canonical remainder of a modulo a monic m, with no fold by q^b = 1."""
    return long_division(a, m)[1]


def exponent_residue_unpooled(exponents: dict[int, int], b: int) -> IntPolynomial:
    """Residue modulo cyclotomic(b) of prod_c cyclotomic(c)^exponents[c]: each
    cyclotomic(c) ** ex built in full and reduced by long division, then the
    residues multiplied one by one, with no pooling, fold or memo."""
    phi = cyclotomic_by_division(b)
    acc = ONE
    for c, ex in exponents.items():
        acc = rem_monic(acc * rem_monic(cyclotomic(c) ** ex, phi), phi)
    return acc


@lru_cache(maxsize=None)
def cyclotomic_by_division(b: int) -> IntPolynomial:
    """q^b - 1 divided by the cyclotomic polynomials of the proper divisors of b."""
    poly = monomial(b) - 1
    for d in range(1, b):
        if b % d == 0:
            poly = divide_monic(poly, cyclotomic_by_division(d))
    return poly


# The per-coefficient loops that the slice kernels of intpoly replaced, kept
# as references for the exact coefficients and NotDivisible remainders.


def mul_one_minus_qk_loop(a: IntPolynomial, k: int) -> IntPolynomial:
    """a * (1 - q**k) for k >= 1, in one pass."""
    c = a.coeffs
    if not c:
        return ZERO
    out = [0] * (len(c) + k)
    out[: len(c)] = c
    for j, cj in enumerate(c):
        out[j + k] -= cj
    return IntPolynomial._raw(tuple(out))


def div_one_minus_qk_exact_loop(a: IntPolynomial, k: int) -> IntPolynomial:
    """a / (1 - q**k) when exact; raises NotDivisible with the remainder."""
    c = a.coeffs
    if not c:
        return ZERO
    n = len(c)
    if n <= k:
        raise NotDivisible(a)
    m = n - k
    quo = [0] * m
    for j in range(m):
        quo[j] = c[j] + (quo[j - k] if j >= k else 0)
    for j in range(m, n):
        expected = -quo[j - k] if j >= k else 0
        if c[j] != expected:
            rem = list(c)
            for i, qc in enumerate(quo):
                rem[i] -= qc
                rem[i + k] += qc
            raise NotDivisible(IntPolynomial(rem))
    return IntPolynomial._raw(tuple(quo))


def reduce_mod_cyclotomic_loop(a: IntPolynomial, b: int) -> IntPolynomial:
    """Canonical remainder of a modulo cyclotomic(b).

    High-degree inputs are first folded by exponent mod b, valid because
    q**b == 1 modulo q**b - 1 and cyclotomic(b) divides q**b - 1; the
    canonical remainder is unchanged.
    """
    phi = cyclotomic(b)
    dphi = len(phi.coeffs) - 1
    c = a.coeffs
    if len(c) <= dphi:
        return a
    if len(c) > b:
        buckets = [0] * b
        for j, cj in enumerate(c):
            buckets[j % b] += cj
        a = IntPolynomial(buckets)
        if len(a.coeffs) <= dphi:
            return a
    return rem_monic(a, phi)


def add_loop(a: tuple[int, ...], b: tuple[int, ...]) -> IntPolynomial:
    """IntPolynomial.__add__ on coefficient tuples."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return IntPolynomial(out)


def find_relations_bareiss(series, dx: int, dy: int, order: int) -> list[RelationCandidate]:
    """relations.find_relations with no rank certificate: Bareiss on every system."""
    monomials = _monomials(len(series), dx, dy)
    rows = [_clear_row(row) for row in _rows(_power_products(series, dy, order), monomials, order)]
    rows, pivots = _bareiss_echelon(rows)
    pivot_cols = {c for _, c in pivots}
    return [
        RelationCandidate(_normalize(_nullspace_vector(rows, pivots, fc, len(monomials)), monomials), order)
        for fc in range(len(monomials))
        if fc not in pivot_cols
    ]
