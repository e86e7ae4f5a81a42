"""Truncated multivariate generating series over exact integer polynomials.

A TruncatedSeries is a sparse map from exponent tuples inside a componentwise
cap to coefficients in Z[q]; absent exponents are zero. Nothing here is
approximate: truncation bounds are part of every contract, and operations
that cannot be certified complete at the requested order refuse to run
(InsufficientTruncation) instead of returning silently short answers.

build_F assembles the generating series of a factorial ratio over a box.
specialize substitutes x_j <- q^(t_j) * x^(m_j), collapsing d variables into
one. extract_cofactor peels the residue pattern of a one-variable series
modulo a cyclotomic polynomial against a supplied integer sequence.
verify_definition_Ld decides membership in the class of series satisfying
g(x) == A(x) * g(x^Q) mod p with per-variable degree of A below Q = p^k: that
degree bound forces A's coefficients to equal g's own on the base box, so
membership reduces to the sequence congruences g_(a+Qn) == g_a * g_n mod p,
checked exhaustively over the truncation box. Both are the Lucas check of
congruence.lucas_check: the cofactor check split by b, membership split by
Q, whose base residues are the cofactor A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .congruence import (
    CongruenceFailure,
    CongruenceReport,
    HypothesisViolated,
    _is_prime,
    check_cofactor,
    lucas_check,
)
from .intpoly import IntPolynomial, reduce_mod_cyclotomic
from .landau import check_landau
from .qcombinatorics import RatioSpec, _check_ints, _check_vector, dot, iter_box, q_ratio_box

Vector = tuple[int, ...]


class InsufficientTruncation(ValueError):
    """The requested order is not certifiable from the supplied truncation."""


class NotPrime(ValueError):
    """The modulus base must be a prime number."""


@dataclass(frozen=True, eq=True)
class TruncatedSeries:
    """Sparse exact series truncated to a componentwise exponent box."""

    num_vars: int
    cap: Vector
    coeffs: dict[Vector, IntPolynomial]

    def __post_init__(self):
        _check_ints(num_vars=(self.num_vars, 1))
        cap = _check_vector(self.cap, self.num_vars, "cap")
        clean: dict[Vector, IntPolynomial] = {}
        for n, c in self.coeffs.items():
            n = _check_vector(n, self.num_vars, "exponent")
            if any(ni > capi for ni, capi in zip(n, cap)):
                raise ValueError(f"exponent {n} exceeds cap {cap}")
            if not isinstance(c, IntPolynomial):
                raise ValueError("coefficients must be IntPolynomial values")
            if c:
                clean[n] = c
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, n: Sequence[int]) -> IntPolynomial:
        return self.coeffs.get(tuple(n), IntPolynomial(()))

    def items(self) -> list[tuple[Vector, IntPolynomial]]:
        return sorted(self.coeffs.items())

    @classmethod
    def from_coefficients(cls, seq: Sequence[Union[int, IntPolynomial]]) -> "TruncatedSeries":
        """One-variable series from a dense coefficient list."""
        coeffs = {}
        for i, c in enumerate(seq):
            poly = c if isinstance(c, IntPolynomial) else IntPolynomial((c,))
            coeffs[(i,)] = poly
        return cls(1, (len(seq) - 1,), coeffs)

    def values_at_q(self, qval) -> list:
        """Dense coefficient values of a one-variable series at a fixed q."""
        if self.num_vars != 1:
            raise ValueError("values_at_q needs a one-variable series")
        return [self.coeff((n,)).evaluate(qval) for n in range(self.cap[0] + 1)]

    def to_json_list(self) -> list[dict]:
        return [
            {"exponents": list(n), "coeff": c.to_strings()} for n, c in self.items()
        ]

    @classmethod
    def from_json_list(cls, num_vars: int, cap: Sequence[int], data: Sequence[Mapping]) -> "TruncatedSeries":
        """Inverse of to_json_list; raises ValueError for any other shape."""
        try:
            coeffs = {}
            for entry in data:
                if isinstance(entry["coeff"], str):  # would be read digit by digit
                    raise TypeError
                n = tuple(entry["exponents"])
                if n in coeffs:
                    raise ValueError(f"exponent {list(n)} is listed twice")
                coeffs[n] = IntPolynomial.from_strings(entry["coeff"])
            cap = tuple(cap)
        except (TypeError, KeyError):
            raise ValueError(
                "series coefficients must be a list of {exponents, coeff} objects, "
                "with the coefficients as a list of decimal strings"
            ) from None
        return cls(num_vars, cap, coeffs)


@dataclass
class LdReport:
    """Membership verdict for the mod-p functional equation class."""

    modulus: int
    power: int
    order: int
    cofactor: dict[Vector, int]
    checked: int
    failures: list[CongruenceFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "modulus": self.modulus,
            "power": self.power,
            "order": self.order,
            "cofactor": [[list(a), v] for a, v in sorted(self.cofactor.items())],
            "checked": self.checked,
            "failures": [f.to_json_dict() for f in self.failures],
        }


# -- construction -------------------------------------------------------------------


def build_F(spec: RatioSpec, cap: Sequence[int]) -> TruncatedSeries:
    """The generating series of the ratio over the box 0..cap.

    Requires the integrality hypothesis (every coefficient is then a
    polynomial); raises HypothesisViolated otherwise before any arithmetic.
    """
    cap = tuple(cap)
    _require_integrality(spec)
    return TruncatedSeries(spec.dim, cap, q_ratio_box(spec, cap))


def _require_integrality(spec: RatioSpec) -> None:
    if not check_landau(spec).integrality:
        raise HypothesisViolated("series coefficients would not all be polynomials")


def specialize(
    series: TruncatedSeries, t: Sequence[int], m: Sequence[int], order: int
) -> TruncatedSeries:
    """Substitute x_j <- q^(t_j) * x^(m_j), truncated to x^order.

    The coefficient of x^N collects q^(t . n) times the source coefficient
    over all n with m . n = N. Certifiable only when every such n lies inside
    the source cap for all N <= order; in particular every m_j must be
    positive, else infinitely many exponents fold onto the same power.
    """
    d = series.num_vars
    t = _check_vector(t, d, "t")
    m = _check_vector(m, d, "m")
    _check_ints(order=(order, 0))
    for j in range(d):
        if m[j] == 0:
            raise InsufficientTruncation(
                f"m[{j}] = 0 folds unboundedly many exponents onto each power"
            )
        needed = order // m[j]
        if series.cap[j] < needed:
            raise InsufficientTruncation(
                f"needs source cap >= {needed} in variable {j}, have {series.cap[j]}"
            )
    out: dict[Vector, IntPolynomial] = {}
    for n, c in series.coeffs.items():
        target = dot(m, n)
        if target <= order:
            shifted = c.shift(dot(t, n))
            key = (target,)
            prev = out.get(key)
            out[key] = shifted if prev is None else prev + shifted
    return TruncatedSeries(1, (order,), out)


# -- residue pattern extraction --------------------------------------------------------


def extract_cofactor(
    fq: TruncatedSeries, g1: Sequence[int], b: int, order: int
) -> tuple[list[IntPolynomial], CongruenceReport]:
    """Residues B_m of the first b coefficients, checked against a sequence.

    Returns the canonical residues B_m = coeff(x^m) mod cyclotomic(b) for
    m < b together with a report on coeff(x^(m+nb)) == B_m * g1[n] mod
    cyclotomic(b) for all m + n b <= order. The supplied integer sequence
    must start at 1 (its zeroth term multiplies B_m itself).
    """
    if fq.num_vars != 1:
        raise ValueError("extract_cofactor needs a one-variable series")
    _check_ints(b=(b, 1), order=(order, 0))
    if not g1 or g1[0] != 1:
        raise ValueError("the sequence must start with 1")
    if fq.cap[0] < order:
        raise InsufficientTruncation(f"series cap {fq.cap[0]} is below order {order}")
    if len(g1) <= order // b:
        raise InsufficientTruncation(
            f"sequence has {len(g1)} terms, needs {order // b + 1}"
        )
    report = CongruenceReport(subject="cofactor", ranges={"b": b, "order": order})
    residues = check_cofactor(
        lambda x: reduce_mod_cyclotomic(fq.coeff(x), b), order + 1, g1, b, report
    )
    return residues, report


# -- functional equation membership -----------------------------------------------------


def verify_definition_Ld(
    g: TruncatedSeries, p: int, k: int, order: int
) -> LdReport:
    """Decide the mod-p functional equation g == A * g(x^Q) with Q = p^k.

    The cofactor's per-variable degree bound (< Q) forces A_a == g_a mod p on
    the base box, so the equation holds iff g_(a+Q n) == g_a * g_n mod p for
    every exponent in the truncation box; all of those with components at
    most `order` are checked and failures carry the offending exponent.
    Needs an integer-coefficient series with constant term 1.
    """
    _check_ints(p=(p, None), k=(k, 1), order=(order, 0))
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    d = g.num_vars
    if any(c < order for c in g.cap):
        raise InsufficientTruncation(f"series cap {g.cap} is below order {order}")
    values: dict[Vector, int] = {}
    for n in iter_box((order,) * d):
        c = g.coeff(n)
        if c.degree > 0:
            raise ValueError("series must have integer coefficients")
        values[n] = (c.coeffs[0] if c.coeffs else 0) % p
    if g.coeff((0,) * d) != 1:
        raise ValueError("series must have constant term 1")
    checked, cofactor, bad = lucas_check(
        (order,) * d, p**k, values.__getitem__, values.__getitem__, lambda v: v % p
    )
    failures = [CongruenceFailure(p, a, x, lhs, rhs) for a, _, x, lhs, rhs in bad]
    return LdReport(
        modulus=p, power=k, order=order, cofactor=cofactor,
        checked=checked, failures=failures,
    )
