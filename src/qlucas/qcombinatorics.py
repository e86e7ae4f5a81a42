"""q-binomials, multidimensional q-factorial ratios and their multisums.

A RatioSpec holds two tuples of nonnegative integer vectors (e for numerator
factorials, f for denominator factorials) over d counting variables. For a
nonnegative integer vector n the ratio is

    prod_i [e_i . n]_q!  /  prod_j [f_j . n]_q!

evaluated exactly in Z[q]. Three independent routes are provided: direct
factor arithmetic (q_ratio), the cyclotomic product form (q_ratio_cyclotomic),
and plain integers at q = 1 (q_ratio_at_one); they must agree wherever defined
and the test suite holds them to that.

The cyclotomic exponent vector {c: delta(n/c)} of a point decides whether the
ratio is a polynomial and gives its residue modulo any cyclotomic(b) as a
product of residue powers; q_ratio_mod takes that route alone and never
builds the full polynomial. It pools the factors cyclotomic(c) that leave
the same residue and multiplies the pooled powers on plain coefficient
tuples, memoized in one bounded cache (_residue_power_cache). Base
residues, squarings and products are all reduced by intpoly's one helper,
which folds by q^b = 1 before the division loop.

Internally every q-factorial is a multiset of binomial factors (1 - q^k)
together with a power of (1 - q): [m]_q! = prod_{k<=m} (1 - q^k) * (1-q)^(-m).
One primitive, _ratio_step, moves a ratio value between two lattice points,
multiplying and dividing only the factors that change. q_ratio is the step
from the origin, q_binomial the step from the origin to (k, n - k) on the
two-variable binomial spec. One walk, _ratio_walk, steps each point of a
box or of a simplex {n : m . n <= order} from its predecessor: q_ratio_box
collects the box, and multisum adds the simplex into the sums
S(N) = sum over m . n = N of q^(t . n) Q(n), the coefficients of
series.specialize and congruence's Apery-type sums; the residue cache keeps
the latter, and their residues, as whole tables (_multisum_table).

Arguments are checked in one place for the whole library: every count a
public call takes goes through _check_ints, which refuses a non-int or a
bool, and a value below the count's lower bound, with a ValueError naming
the count; every point, box or exponent vector goes through _check_vector.
The intpoly kernels keep their own checks, since they sit on hot paths.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .intpoly import (
    ONE,
    ZERO,
    IntPolynomial,
    NotDivisible,
    _mul_one_plus_qk,
    _mul_schoolbook,
    _reduce_cyclotomic,
    cyclotomic,
    div_one_minus_qk_exact,
    mul_one_minus_qk,
)

class NegativeExponent(ArithmeticError):
    """The cyclotomic product form hit a negative exponent; not a polynomial."""

    def __init__(self, modulus: int, exponent: int):
        super().__init__(
            f"cyclotomic exponent {exponent} at modulus b={modulus}; "
            "the ratio is not a polynomial"
        )
        self.modulus = modulus
        self.exponent = exponent


Vector = tuple[int, ...]


def _check_ints(**counts: tuple[object, Optional[int]]) -> None:
    """Raise a ValueError naming the first count that is not an int, or a
    bool (JSON true and false are not counts), or is below its bound.

    Each count is given as (value, lowest allowed value or None).
    """
    for name, (x, low) in counts.items():
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{name} must be an integer, got {x!r}")
        if low is not None and x < low:
            raise ValueError(f"{name} must be >= {low}")


def _check_vector(v: Sequence[int], length: int, name: str) -> Vector:
    """v as a tuple, which must hold length nonnegative ints; name labels it in the error."""
    v = tuple(v)
    if len(v) != length or any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in v):
        raise ValueError(f"{name} {v} must be nonnegative integers of length {length}")
    return v


@dataclass(frozen=True)
class RatioSpec:
    """Numerator/denominator factorial vectors over dim counting variables.

    net maps each distinct vector to its count in e minus its count in f, its
    net multiplicity; it is derived from e and f, not a field.
    """

    dim: int
    e: tuple[Vector, ...]
    f: tuple[Vector, ...]

    def __post_init__(self):
        _check_ints(dim=(self.dim, 1))
        for name in ("e", "f"):
            norm = tuple(_check_vector(v, self.dim, f"{name} vector") for v in getattr(self, name))
            object.__setattr__(self, name, norm)
        net: dict[Vector, int] = {}
        for sign, vecs in ((1, self.e), (-1, self.f)):
            for t in vecs:
                net[t] = net.get(t, 0) + sign
        object.__setattr__(self, "net", net)

    @property
    def total_e(self) -> Vector:
        return tuple(sum(v[i] for v in self.e) for i in range(self.dim))

    @property
    def total_f(self) -> Vector:
        return tuple(sum(v[i] for v in self.f) for i in range(self.dim))

    @property
    def balanced(self) -> bool:
        """Column sums of e and f agree (the ratio degree is then periodic)."""
        return self.total_e == self.total_f

    def all_vectors(self) -> tuple[Vector, ...]:
        return self.e + self.f

    def distinct_nonzero_vectors(self) -> tuple[Vector, ...]:
        return tuple(sorted({v for v in self.all_vectors() if any(v)}))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "e": [list(v) for v in self.e],
            "f": [list(v) for v in self.f],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RatioSpec":
        if not isinstance(data, Mapping):
            raise ValueError("ratio spec must be a JSON object")
        extra = set(data) - {"dim", "e", "f"}
        if extra:
            raise ValueError(f"unknown ratio spec keys: {sorted(extra)}")
        try:
            dim = data["dim"]
            e = data["e"]
            f = data["f"]
        except KeyError as exc:
            raise ValueError(f"ratio spec missing key {exc.args[0]!r}") from exc
        try:
            return cls(dim, tuple(tuple(v) for v in e), tuple(tuple(v) for v in f))
        except TypeError:
            raise ValueError("ratio spec e and f must be lists of integer vectors") from None


_BINOMIAL = RatioSpec(2, ((1, 1),), ((1, 0), (0, 1)))


def dot(vec: Sequence[int], n: Sequence[int]) -> int:
    return sum(map(operator.mul, vec, n))


# -- one-dimensional building blocks ------------------------------------------


def q_binomial(n: int, k: int) -> IntPolynomial:
    """Gaussian binomial; zero when k < 0 or k > n.

    The binomial ratio (n1 + n2)! / (n1! n2!) stepped from the origin to
    (k, n - k). Needs n >= 0.
    """
    _check_ints(n=(n, 0), k=(k, None))
    if k < 0 or k > n:
        return ZERO
    return _ratio_step(_BINOMIAL, ONE, (0, 0), (k, n - k))


# -- ratio evaluation ----------------------------------------------------------


def _ratio_step(spec: RatioSpec, value: IntPolynomial, src: Vector, dst: Vector) -> IntPolynomial:
    """value * Q(dst) / Q(src), multiplying and dividing only the factors that change.

    Between the points, [m]_q! of a vector whose dot product moves from a to
    c gains (1 - q^k) for a < k <= c, or loses it for c < k <= a, and the
    (1 - q)^(-m) powers net into k = 1. Each distinct vector is visited once,
    with its net multiplicity (spec.net); one of net 0 changes nothing.

    A lost (1 - q^k) and a gained (1 - q^2k) have the quotient 1 + q^k, so
    min(losses of k, gains of 2k) of them are taken out of both counts and
    applied as that many (1 + q^k) passes. Then every multiplication,
    (1 - q^k) and (1 + q^k) alike, runs in ascending k, and only after them
    the remaining losses divide, largest k first. Since every multiplication
    comes first, each partial quotient is the result times the losses not
    yet divided: it is a polynomial whenever the result is, and if the result
    is not a polynomial some division raises NotDivisible.
    """
    counts: dict[int, int] = {}
    ones = 0
    for t, m in spec.net.items():
        if not m:
            continue
        a, c = dot(t, src), dot(t, dst)
        if c > a:
            for k in range(a + 1, c + 1):
                counts[k] = counts.get(k, 0) + m
        elif c < a:
            for k in range(c + 1, a + 1):
                counts[k] = counts.get(k, 0) - m
        ones += m * (a - c)
    if ones:
        counts[1] = counts.get(1, 0) + ones
    # A lost k pairs only with a gained 2k, and a gained 2k only with a lost
    # k, so no two pairings compete for a count.
    muls = []
    for k, c in list(counts.items()):
        if c < 0 and counts.get(2 * k, 0) > 0:
            p = min(-c, counts[2 * k])
            counts[k] += p
            counts[2 * k] -= p
            muls.append((k, _mul_one_plus_qk, p))
    muls += [(k, mul_one_minus_qk, c) for k, c in counts.items() if c > 0]
    muls.sort(key=operator.itemgetter(0))
    for k, kernel, c in muls:
        for _ in range(c):
            value = kernel(value, k)
    for k, c in sorted(counts.items(), reverse=True):
        for _ in range(-c):
            value = div_one_minus_qk_exact(value, k)
    return value


def q_ratio(spec: RatioSpec, n: Sequence[int]) -> IntPolynomial:
    """The factorial ratio at n as an exact polynomial: the step from the origin.

    Raises NotDivisible (with the offending remainder) if the ratio is not a
    polynomial at n. Numerator factors are multiplied first, each (1 - q^2k)
    that meets a denominator (1 - q^k) as one (1 + q^k); the other
    denominator factors divide exactly afterwards in decreasing degree order,
    so failures surface at the first non-integral quotient.
    """
    n = _check_vector(n, spec.dim, "point")
    return _ratio_step(spec, ONE, (0,) * spec.dim, n)


def q_ratio_at_one(spec: RatioSpec, n: Sequence[int]) -> int:
    """The ratio specialized at q = 1: a quotient of ordinary factorials."""
    n = _check_vector(n, spec.dim, "point")
    num = math.prod(math.factorial(dot(t, n)) for t in spec.e)
    den = math.prod(math.factorial(dot(t, n)) for t in spec.f)
    quo, rem = divmod(num, den)
    if rem:
        raise NotDivisible(IntPolynomial((rem,)), "ratio is not an integer at q = 1")
    return quo


def cyclotomic_exponents(spec: RatioSpec, n: Sequence[int]) -> dict[int, int]:
    """The nonzero exponents {c: delta(n/c)} of the ratio at n, c >= 2, increasing.

    [m]_q! is the product over c >= 2 of cyclotomic(c)^floor(m/c), so the
    ratio at n is the product of cyclotomic(c) to the step function at n/c.
    Raises NegativeExponent at the smallest c whose exponent is negative: the
    ratio is then not a polynomial.
    """
    n = _check_vector(n, spec.dim, "point")
    dots_e = [dot(t, n) for t in spec.e]
    dots_f = [dot(t, n) for t in spec.f]
    top = max(dots_e + dots_f, default=0)
    # net[k]: numerator minus denominator factorials with m >= k, i.e. the net
    # multiplicity of (1 - q^k); cyclotomic(c) divides (1 - q^k) iff c | k.
    net = [0] * (top + 1)
    for d in dots_e:
        net[d] += 1
    for d in dots_f:
        net[d] -= 1
    net = list(itertools.accumulate(reversed(net)))[::-1]
    out: dict[int, int] = {}
    for c in range(2, top + 1):
        ex = sum(net[c::c])
        if ex < 0:
            raise NegativeExponent(c, ex)
        if ex:
            out[c] = ex
    return out


def q_ratio_cyclotomic(spec: RatioSpec, n: Sequence[int]) -> IntPolynomial:
    """The ratio at n as a product of cyclotomic polynomial powers.

    The exponent of cyclotomic(b) is the step function at n/b. A negative
    exponent proves the ratio is not a polynomial and raises NegativeExponent
    with the witness modulus.
    """
    out = ONE
    for b, ex in cyclotomic_exponents(spec, n).items():
        out = out * cyclotomic(b) ** ex
    return out


def ratio_degree(spec: RatioSpec, n: Sequence[int]) -> int:
    """Degree of the ratio at n (deg [m]_q! = m(m-1)/2); may be negative."""
    n = _check_vector(n, spec.dim, "point")
    tri = lambda m: m * (m - 1) // 2
    return sum(tri(dot(t, n)) for t in spec.e) - sum(tri(dot(t, n)) for t in spec.f)


def q_ratio_mod(spec: RatioSpec, n: Sequence[int], b: int) -> IntPolynomial:
    """Canonical residue of the ratio at n modulo cyclotomic(b).

    Raises NegativeExponent, at every b, if the ratio is not a polynomial at
    n. At b = 1 the residue is the value at q = 1.
    """
    _check_ints(b=(b, 1))
    return exponent_residue(cyclotomic_exponents(spec, n), b)


def exponent_residue(exponents: Mapping[int, int], b: int) -> IntPolynomial:
    """Residue modulo cyclotomic(b) of prod_c cyclotomic(c)^exponents[c], c >= 2, exponents >= 1.

    Factors c with the same base residue cyclotomic(c) mod cyclotomic(b) are
    pooled, their exponents added (Z[q]/cyclotomic(b) is commutative), and
    base residues equal to 1 drop out. The pooled powers are multiplied and
    reduced on plain coefficient tuples; one IntPolynomial is built at the
    end. Only b in exponents gives zero: Z[q]/cyclotomic(b) has no zero
    divisors. The whole residue is memoized, keyed by b and the exponent
    items in the order given.
    """
    if b in exponents:
        return ZERO
    key = (b, *exponents.items())
    hit = _residue_power_cache.get(key)
    if hit is not None:
        return IntPolynomial._raw(hit)
    pooled: dict[tuple[int, ...], int] = {}
    for c, ex in exponents.items():
        base = _residue_power_cache.get((c, b))
        if base is None:
            base = _cache_put((c, b), tuple(_reduce_cyclotomic(cyclotomic(c).coeffs, b)))
        if base != (1,):
            pooled[base] = pooled.get(base, 0) + ex
    acc = None
    for base, ex in pooled.items():
        power = _residue_power(base, ex, b)
        acc = power if acc is None else _reduce_cyclotomic(_mul_schoolbook(acc, power), b)
    return IntPolynomial._raw(_cache_put(key, (1,) if acc is None else tuple(acc)))


# Memo of the residue route, shared by all sweeps of a process, with
# coefficient tuples (or tables of them) as values, under five key shapes
# that cannot collide: base residues cyclotomic(c) mod cyclotomic(b) keyed
# (c, b), pooled powers base^ex mod cyclotomic(b) keyed (base, ex, b) with
# base a tuple, residues of a whole exponent vector keyed (b, (c, ex), ...),
# and, with spec a RatioSpec, the table of multisum's sums keyed (spec, t, m)
# and the table of their residues keyed (spec, t, m, b). A whole residue
# pays off only when a process asks again for the same (exponent vector, b),
# as a sweep at several b_max does. An insert into a cache holding
# _RESIDUE_POWER_CACHE_MAX entries empties it first. One pass of the sweep
# benchmark (90 calls, seeds 1-3) leaves about 2,500 entries: 661 base
# residues, about 950 powers and 850-900 whole residues. The apery
# benchmark's Apery sweeps leave 52 entries: for 4 (family, t) pairs, the
# sums at n <= 24 and their residues at each b <= 12.
_residue_power_cache: dict[tuple, tuple] = {}
_RESIDUE_POWER_CACHE_MAX = 2**16


def _cache_put(key: tuple, value: tuple[int, ...]) -> tuple[int, ...]:
    if len(_residue_power_cache) >= _RESIDUE_POWER_CACHE_MAX:
        _residue_power_cache.clear()
    _residue_power_cache[key] = value
    return value


def _residue_power(base: tuple[int, ...], ex: int, b: int) -> tuple[int, ...]:
    """base^ex modulo cyclotomic(b) for ex >= 1, by repeated squaring."""
    if ex == 1:
        return base
    key = (base, ex, b)
    hit = _residue_power_cache.get(key)
    if hit is not None:
        return hit
    acc = None
    sq = base
    e = ex
    while True:
        if e & 1:
            acc = sq if acc is None else _reduce_cyclotomic(_mul_schoolbook(acc, sq), b)
        e >>= 1
        if not e:
            return _cache_put(key, tuple(acc))
        sq = _reduce_cyclotomic(_mul_schoolbook(sq, sq), b)


# -- box evaluation -------------------------------------------------------------


def iter_box(cap: Sequence[int]) -> Iterator[Vector]:
    """Lexicographic walk of the integer box 0..cap inclusive, last axis fastest."""
    return itertools.product(*(range(c + 1) for c in cap))


def q_ratio_box(spec: RatioSpec, cap: Sequence[int]) -> dict[Vector, IntPolynomial]:
    """Exact ratio values on the box 0..cap, in walk order; raises
    NotDivisible at the first point where the ratio is not a polynomial."""
    cap = _check_vector(cap, spec.dim, "cap")
    return dict(_ratio_walk(spec, cap, (0,) * spec.dim, 0))


def multisum(spec: RatioSpec, t: Sequence[int], m: Sequence[int], order: int) -> list[IntPolynomial]:
    """S(N) = sum over n with m . n = N of q^(t . n) Q(n) for N <= order: the
    coefficients of the ratio's series at x_j <- q^(t_j) x^(m_j), walking
    only the simplex m . n <= order. Every m_j must be positive; raises
    NotDivisible at the first point where the ratio is not a polynomial."""
    t, m = _check_multisum(spec, t, m, order)
    sums = [[] for _ in range(order + 1)]
    for n, value in _ratio_walk(spec, tuple(order // mj for mj in m), m, order):
        total, lo = sums[dot(m, n)], dot(t, n)
        hi = lo + len(value.coeffs)
        total += [0] * (hi - len(total))
        total[lo:hi] = map(operator.add, total[lo:hi], value.coeffs)
    return [IntPolynomial(total) for total in sums]


def _multisum_table(spec: RatioSpec, t: Vector, m: Vector, order: int) -> tuple:
    """multisum's sums, at least S(0)..S(order), as coefficient tuples, kept
    in the residue cache under (spec, t, m); walks again only when the stored
    table is shorter than order + 1."""
    table = _residue_power_cache.get((spec, t, m), ())
    if len(table) <= order:
        table = _cache_put((spec, t, m), tuple(s.coeffs for s in multisum(spec, t, m, order)))
    return table


def _multisum_residues(spec: RatioSpec, t: Vector, m: Vector, order: int, b: int) -> tuple:
    """The residues of _multisum_table's sums modulo cyclotomic(b), at least
    up to order, kept under (spec, t, m, b); each sum is reduced once."""
    done = _residue_power_cache.get((spec, t, m, b), ())
    if len(done) <= order:
        sums = _multisum_table(spec, t, m, order)[len(done) : order + 1]
        done = _cache_put((spec, t, m, b), done + tuple(tuple(_reduce_cyclotomic(s, b)) for s in sums))
    return done


def _check_multisum(spec: RatioSpec, t: Sequence[int], m: Sequence[int], order: int) -> tuple:
    """multisum's argument checks, refusing a zero m_j; returns t and m as tuples."""
    t = _check_vector(t, spec.dim, "t")
    m = _check_vector(m, spec.dim, "m")
    _check_ints(order=(order, 0))
    if 0 in m:
        raise ValueError(f"m[{m.index(0)}] = 0 folds unboundedly many exponents onto each power")
    return t, m


def _ratio_walk(spec: RatioSpec, cap: Vector, m: Vector, order: int) -> Iterator[tuple]:
    """(n, Q(n)) for every n in the box 0..cap with m . n <= order (m = 0: the
    whole box), lexicographically, last axis fastest. Each value is one ratio
    step from its predecessor along the last nonzero axis j, (n_0..n_j - 1,
    0..0), met earlier since m >= 0; vals[j] holds the value at the latest
    (n_0..n_j, 0..0), so the walk keeps one value per axis, not the box."""
    n = [0] * spec.dim
    vals = [ONE] * spec.dim
    free = order
    yield tuple(n), ONE
    j = spec.dim - 1
    while j >= 0:
        if n[j] < cap[j] and m[j] <= free:
            src = tuple(n)
            n[j] += 1
            free -= m[j]
            value = _ratio_step(spec, vals[j], src, tuple(n))
            vals[j:] = [value] * (spec.dim - j)
            yield tuple(n), value
            j = spec.dim - 1
        else:
            free += m[j] * n[j]
            n[j] = 0
            j -= 1
