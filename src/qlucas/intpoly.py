"""Exact arithmetic on univariate integer polynomials.

Polynomials are dense ascending coefficient tuples in canonical form: no
trailing zeros, the zero polynomial is the empty tuple. Every operation is
exact over the integers; division by 1 - q^k raises instead of truncating
or drifting into floats, and the only other division is the remainder
modulo a cyclotomic polynomial. Multiplication is one schoolbook kernel: the
products on the sweep and series paths are small, mostly residues modulo a
cyclotomic polynomial, and at those sizes it beats packing into big
integers. Cyclotomic polynomials are Moebius products of 1 - q^d factors.

All reduction modulo cyclotomic(b) is one list-level helper,
_reduce_cyclotomic: it folds an input longer than b by exponent mod b, then
runs the monic long-division loop on what is left. reduce_mod_cyclotomic
only wraps it for polynomials, and the residue products of qcombinatorics
call it on plain coefficient tuples without building an IntPolynomial per
step.

The linear kernels loop over whole slices, so the per-coefficient work runs
in C (``map``, ``itertools.accumulate``, ``sum``): addition, multiplication
by 1 - q^k, exact division by 1 - q^k, and the fold by exponent mod b. The
two stride loops, the fold (stride b) and the running sums of the division
(stride k), take whichever of two forms loops fewer times in Python over n
coefficients: one pass per residue class when stride * stride <= n, else
one pass per block of stride coefficients. The schoolbook product and the
division loop of _reduce_cyclotomic keep per-coefficient loops: their rows
are short on the sweep path, where moving them to ``map`` made the sweep
benchmark's wall time about a third worse (0.33 s to 0.44 s).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]

#: Degree of the zero polynomial. A sentinel, never an ordinary integer.
NEG_INF = float("-inf")


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed. Carries the offending remainder."""

    def __init__(self, remainder: "IntPolynomial", message: str = "not divisible"):
        super().__init__(message)
        self.remainder = remainder


class IntPolynomial:
    """Immutable dense polynomial over the integers, ascending coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        c = tuple(coeffs)
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        self.coeffs = c[:n]

    @classmethod
    def _raw(cls, coeffs: tuple[int, ...]) -> "IntPolynomial":
        # Caller guarantees canonical form (used on hot paths).
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> Union[int, float]:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(map(add, a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "IntPolynomial":
        return IntPolynomial((other,)) - self

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            if other == 0 or not self.coeffs:
                return ZERO
            return IntPolynomial._raw(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        # Product of nonzero integer polynomials keeps a nonzero lead.
        return IntPolynomial._raw(tuple(_mul_schoolbook(a, b)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by q**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self.coeffs or k == 0:
            return self
        return IntPolynomial._raw((0,) * k + self.coeffs)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_at_one(self) -> int:
        return sum(self.coeffs)

    # -- serialization and display ------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as decimal strings, ascending; exact at any size."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "IntPolynomial":
        """Inverse of to_strings; a TypeError for an entry that is not a str."""
        items = list(items)
        if not all(isinstance(s, str) for s in items):
            raise TypeError(f"coefficients {items} must be decimal strings")
        return cls(int(s) for s in items)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs, descending exponent."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                yield k, self.coeffs[k]

    def __str__(self) -> str:
        return _signed_sum((c, "" if k == 0 else "q" if k == 1 else f"q^{k}") for k, c in self.terms())

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"


ZERO = IntPolynomial(())
ONE = IntPolynomial((1,))


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Nonzero (coefficient, monomial) terms as text, like "-2*q^2 + q - 1".

    The first sign is "-" or nothing, later ones "- " or "+ ". A unit
    coefficient is left out before a monomial; the monomial "" is the
    constant term. No terms give "0".
    """
    parts: list[str] = []
    for c, mono in terms:
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if parts:
            body = ("+ " if c > 0 else "- ") + body
        elif c < 0:
            body = "-" + body
        parts.append(body)
    return " ".join(parts) or "0"


def monomial(k: int, c: int = 1) -> IntPolynomial:
    """c * q**k."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if c == 0:
        return ZERO
    return IntPolynomial._raw((0,) * k + (c,))


# -- multiplication kernel --------------------------------------------------


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


# -- binomial factors (1 - q^k) ----------------------------------------------


def mul_one_minus_qk(a: IntPolynomial, k: int) -> IntPolynomial:
    """a * (1 - q**k) for k >= 1, in one pass; ValueError for k < 1."""
    if k < 1:
        raise ValueError(f"(1 - q^k) needs k >= 1, got {k}")
    c = a.coeffs
    if not c:
        return ZERO
    out = list(c) + [0] * k
    out[k:] = map(sub, out[k:], c)  # out[j] -= c[j - k]
    return IntPolynomial._raw(tuple(out))


def div_one_minus_qk_exact(a: IntPolynomial, k: int) -> IntPolynomial:
    """a / (1 - q**k) for k >= 1 when exact; raises NotDivisible with the remainder.

    ValueError for k < 1.
    """
    if k < 1:
        raise ValueError(f"(1 - q^k) needs k >= 1, got {k}")
    c = a.coeffs
    if not c:
        return ZERO
    n = len(c)
    if n <= k:
        raise NotDivisible(a)
    # Running sums s[j] = c[j] + s[j - k] over all n coefficients: the first
    # m are the quotient, the last k the remainder's only nonzero entries.
    if k * k <= n:
        s = [0] * n
        for r in range(k):
            s[r::k] = accumulate(c[r::k])
    else:
        s = list(c[:k])
        for j in range(k, n, k):
            s += map(add, c[j : j + k], s[j - k : j])
    m = n - k
    if any(s[m:]):
        raise NotDivisible(IntPolynomial([0] * m + s[m:]))
    return IntPolynomial._raw(tuple(s[:m]))


# -- cyclotomic polynomials ----------------------------------------------------


@lru_cache(maxsize=1024)
def cyclotomic(b: int) -> IntPolynomial:
    """The b-th cyclotomic polynomial.

    For b >= 2 it is the Moebius product prod_{d | b} (1 - q^d)^mu(b/d),
    built with the (1 - q^k) kernels: the factors with mu = +1 multiplied
    in ascending d, then those with mu = -1 divided out largest d first.
    Memoized for the 1024 most recent indices; safe under the GIL since
    entries are immutable and insertion is idempotent.
    """
    if b < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if b == 1:
        return IntPolynomial((-1, 1))
    # mu(b/d) is nonzero exactly when b/d is a product of distinct primes of b.
    mu = {b: 1}
    rest, p = b, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            mu.update({d // p: -sign for d, sign in mu.items()})
            while rest % p == 0:
                rest //= p
        p += 1
    poly = ONE
    for d in sorted(mu):
        if mu[d] > 0:
            poly = mul_one_minus_qk(poly, d)
    for d in sorted(mu, reverse=True):
        if mu[d] < 0:
            poly = div_one_minus_qk_exact(poly, d)
    return poly


def _reduce_cyclotomic(c: Sequence[int], b: int) -> list[int]:
    """Canonical remainder of the coefficients c modulo cyclotomic(b), as a list.

    Inputs longer than b are first folded by exponent mod b, valid because
    q**b == 1 modulo q**b - 1 and cyclotomic(b) divides q**b - 1; the
    canonical remainder is unchanged. The fold reads c in place, so only an
    unfolded input is copied. Then the monic long-division loop runs on the
    list, and the result is cut below the degree of cyclotomic(b), with no
    trailing zeros.
    """
    m = cyclotomic(b).coeffs
    n = len(c)
    if n > b:
        if n >= b * b:
            rem = [sum(c[r::b]) for r in range(b)]
        else:
            rem = list(c[:b])
            for j in range(b, n, b):
                rem[: n - j] = map(add, rem, c[j : j + b])
    else:
        rem = list(c)
    dm = len(m) - 1
    for i in range(len(rem) - 1, dm - 1, -1):
        x = rem[i]
        if x:
            base = i - dm
            for j in range(dm):
                rem[base + j] -= x * m[j]
    n = min(len(rem), dm)
    while n and rem[n - 1] == 0:
        n -= 1
    del rem[n:]
    return rem


def reduce_mod_cyclotomic(a: IntPolynomial, b: int) -> IntPolynomial:
    """Canonical remainder of a modulo cyclotomic(b)."""
    return IntPolynomial._raw(tuple(_reduce_cyclotomic(a.coeffs, b)))
