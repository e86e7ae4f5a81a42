"""Sweep verifiers for cyclotomic and prime congruences of factorial ratios.

Every verifier here, and series.verify_definition_Ld, runs one Lucas check
(lucas_check): it walks an index box, splits each index as x = a + s n with
a < s, and compares the residue at x with the residue at a times a q = 1
factor at n. Every check is counted, every mismatch is recorded with both
canonical residues in index order, and a failure never aborts the sweep.
The verifiers for the ratio congruence and its q = 1 shadow refuse specs
that do not satisfy their hypotheses (balanced column sums plus both
step-function conditions); they are checkers of stated facts, not explorers.

Residues modulo cyclotomic(b) come from the cyclotomic exponent vector of
each point and values at q = 1 from integer factorials; no full ratio
polynomial is built, and no residue is reduced twice (see lucas_check). A
sweep over many moduli memoizes both per point for the length of the call,
in two functools.cache wrappers, since a point a + n b recurs for every b it
can be written at. The residue itself is memoized by qcombinatorics for the
whole process, keyed by the exponent vector and b, so a sweep that repeats
an earlier one's moduli (a larger b_max, or verify_inter2_identity at the
same scaled points) reuses its residues. The Apery-type sums are
qcombinatorics.multisum of a family's spec; qcombinatorics keeps them, and
their residues modulo each cyclotomic(b), as whole tables in the same cache,
so each is built once for the whole process until the cache is emptied.

Counts and boxes are checked before the hypotheses, by
qcombinatorics._check_ints and _check_vector: a bool or non-integer, or a
value below the least one allowed (b_max 1, p_max 2), is a ValueError that
names the argument. Every sweep runs in the calling process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Optional, Sequence

from . import catalog
from .intpoly import IntPolynomial
from .landau import check_landau
from .qcombinatorics import (
    RatioSpec,
    _check_ints,
    _check_vector,
    _multisum_residues,
    _multisum_table,
    cyclotomic_exponents,
    exponent_residue,
    q_ratio_at_one,
    q_ratio_mod,
)


class HypothesisViolated(ValueError):
    """The spec fails a precondition the congruence would rely on."""


@dataclass(frozen=True)
class CongruenceFailure:
    """One mismatched congruence instance, with canonical residues.

    Residues modulo a prime are given as integers and kept as constant
    polynomials.
    """

    b: int
    a: Optional[tuple[int, ...]]
    n: tuple[int, ...]
    lhs_residue: IntPolynomial
    rhs_residue: IntPolynomial

    def __post_init__(self):
        for name in ("lhs_residue", "rhs_residue"):
            value = getattr(self, name)
            if isinstance(value, int):
                object.__setattr__(self, name, IntPolynomial((value,)))

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "a": list(self.a) if self.a is not None else None,
            "n": list(self.n),
            "lhs_residue": self.lhs_residue.to_strings(),
            "rhs_residue": self.rhs_residue.to_strings(),
        }


@dataclass
class CongruenceReport:
    subject: str
    ranges: dict
    checked: int = 0
    failures: list[CongruenceFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ranges": self.ranges,
            "checked": self.checked,
            "ok": self.ok,
            "failures": [f.to_json_dict() for f in self.failures],
        }


# -- shared helpers ----------------------------------------------------------------


def _require_hypotheses(spec: RatioSpec, subject: str, subdomain: bool) -> None:
    """Raise HypothesisViolated unless the spec is balanced and integral and,
    if subdomain is set, its step function is at least 1 on the subdomain."""
    if not spec.balanced:
        raise HypothesisViolated(
            f"{subject}: spec column sums differ (e={spec.total_e}, f={spec.total_f})"
        )
    report = check_landau(spec)
    if not report.integrality:
        raise HypothesisViolated(f"{subject}: step function is negative somewhere")
    if subdomain and not report.criterion_D:
        raise HypothesisViolated(
            f"{subject}: step function is below 1 on the distinguished subdomain"
        )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    i = 3
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


# -- the Lucas check ------------------------------------------------------------------


def lucas_check(
    box: Sequence[int],
    split: int,
    residue: Callable,
    factor: Callable[[tuple[int, ...]], int],
    reduce: Optional[Callable] = None,
) -> tuple[int, dict, list]:
    """Check residue(a + split n) == residue(a) * factor(n) over a box.

    Walks every x in the box 0..box, inclusive, in lexicographic order, and
    splits it as x = a + split n with 0 <= a_i < split. Each x is one check.
    Returns the number of checks, the base residues {a: residue(a)}, and the
    mismatches (a, n, x, lhs, rhs) in walk order. The walk meets x = a before
    any other x with offset a, so residue(a) is the left side of the check
    at n = 0 and is evaluated once. A canonical residue modulo cyclotomic(b)
    times an integer is canonical, so the right side is compared as it is;
    reduce, applied to it when given, is for integer residues modulo p.
    """
    axes = [[(c, c % split, c // split) for c in range(top + 1)] for top in box]
    base: dict = {}
    mismatches = []
    for parts in itertools.product(*axes):
        x, a, n = zip(*parts)
        lhs = residue(x)
        rhs = base.setdefault(a, lhs) * factor(n)
        if reduce is not None:
            rhs = reduce(rhs)
        if lhs != rhs:
            mismatches.append((a, n, x, lhs, rhs))
    return math.prod(map(len, axes)), base, mismatches


def _sweep_moduli(
    at_one: bool, spec: RatioSpec, moduli: Sequence[int], n_box: tuple[int, ...]
) -> tuple[int, list[CongruenceFailure]]:
    """(checked, failures) of Q(q; a + n b) == Q(q; a) Q(1; n) modulo
    cyclotomic(b) for each b, or with at_one of its q = 1 shadow modulo the
    prime b. The points a + n b are the box 0..b(N_i + 1) - 1 per axis."""
    ratio_at_one = cache(partial(q_ratio_at_one, spec))
    exponents = cache(partial(cyclotomic_exponents, spec))
    checked = 0
    failures: list[CongruenceFailure] = []
    for b in moduli:
        residue, reduce = (lambda x: exponent_residue(exponents(x), b)), None
        if at_one:
            residue, reduce = (lambda x: ratio_at_one(x) % b), (lambda v: v % b)
        box = tuple(b * (c + 1) - 1 for c in n_box)
        count, _, bad = lucas_check(box, b, residue, ratio_at_one, reduce)
        checked += count
        failures += [CongruenceFailure(b, a, n, lhs, rhs) for a, n, _, lhs, rhs in bad]
    return checked, failures


# -- ratio congruence ----------------------------------------------------------------


def verify_ratio_congruence(spec: RatioSpec, b_max: int, n_box: Sequence[int]) -> CongruenceReport:
    """Sweep Q(q; a + n b) == Q(q; a) Q(1; n) modulo cyclotomic(b).

    Runs over every modulus b = 1..b_max, offset a in the box below b, and
    step n in the given box, inclusive; within a modulus in the order of
    a + n b. Requires a balanced spec that passes both step-function
    hypotheses.
    """
    n_box = _check_vector(n_box, spec.dim, "n_box")
    _check_ints(b_max=(b_max, 1))
    _require_hypotheses(spec, "ratio congruence", subdomain=True)
    report = CongruenceReport(
        subject="ratio-congruence",
        ranges={"spec": spec.to_json_dict(), "b_max": b_max, "n_box": list(n_box)},
    )
    report.checked, report.failures = _sweep_moduli(False, spec, range(1, b_max + 1), n_box)
    return report


# -- q = 1 shadow ---------------------------------------------------------------------


def verify_plucas_at_one(spec: RatioSpec, p_max: int, n_box: Sequence[int]) -> CongruenceReport:
    """Sweep the integer congruence Q(1; a + n p) == Q(1; a) Q(1; n) mod p.

    Runs over every prime p <= p_max. Same hypotheses, order and report
    shape as verify_ratio_congruence; residues are reported as constant
    polynomials. The box of each prime contains the boxes of all smaller
    primes, so the sweep's cost is the q = 1 values of the largest box,
    which the sweep computes once.
    """
    n_box = _check_vector(n_box, spec.dim, "n_box")
    _check_ints(p_max=(p_max, 2))
    _require_hypotheses(spec, "prime congruence", subdomain=True)
    primes = [p for p in range(2, p_max + 1) if _is_prime(p)]
    report = CongruenceReport(
        subject="plucas-at-one",
        ranges={"spec": spec.to_json_dict(), "p_max": p_max, "n_box": list(n_box)},
    )
    report.checked, report.failures = _sweep_moduli(True, spec, primes, n_box)
    return report


# -- scaled-point identity --------------------------------------------------------------


def verify_inter2_identity(spec: RatioSpec, b: int, n_box: Sequence[int]) -> CongruenceReport:
    """Sweep Q(q; n b) == Q(1; n) modulo cyclotomic(b) over the box.

    The Lucas check with split 1, whose only offset is a = 0 with Q(q; 0) = 1.
    Needs only balance and integrality (the subdomain condition plays no
    role here).
    """
    n_box = _check_vector(n_box, spec.dim, "n_box")
    _check_ints(b=(b, 1))
    _require_hypotheses(spec, "scaled-point identity", subdomain=False)
    report = CongruenceReport(
        subject="inter2",
        ranges={"spec": spec.to_json_dict(), "b": b, "n_box": list(n_box)},
    )
    report.checked, _, bad = lucas_check(
        n_box,
        1,
        lambda n: q_ratio_mod(spec, tuple(c * b for c in n), b),
        partial(q_ratio_at_one, spec),
    )
    report.failures = [CongruenceFailure(b, None, n, lhs, rhs) for _, n, _, lhs, rhs in bad]
    return report


# -- Apery-type q-analogues ----------------------------------------------------------------


def apery_polynomial(family: str, t: int, n: int) -> IntPolynomial:
    """The degree-weighted Apery-type sum of kind 'a' or 'b' at n.

    Sums q^(t k) times the family's ratio (catalog.apery_family_spec) at
    (k, n - k): multisum of that spec at t = (t, 0), m = (1, 1). That is
    sum_k q^(t k) qbinom(n, k)^2 qbinom(n+k, k)^r with r = 1 for 'a' and
    r = 2 for 'b', which the tests check. At q = 1 these collapse to the
    classical integer sequences (catalog.apery_number_sequence). The sum
    is indexed in qcombinatorics._multisum_table, which walks to n only when
    the residue cache holds no table of the spec that long.
    """
    _check_ints(t=(t, 0), n=(n, 0))
    return IntPolynomial._raw(_multisum_table(catalog.apery_family_spec(family), (t, 0), (1, 1), n)[n])


def check_cofactor(
    residue: Callable[[tuple[int]], IntPolynomial],
    count: int,
    g1: Sequence[int],
    b: int,
    report: CongruenceReport,
) -> list[IntPolynomial]:
    """Check c_(m + n b) == B_m * g1[n] modulo cyclotomic(b) for indices below count.

    The one-variable Lucas check over the coefficients c_0..c_(count - 1) of
    a series, given by residue((i,)), the canonical residue of c_i modulo
    cyclotomic(b); the index is a 1-tuple, as lucas_check passes it. B_m is
    residue((m,)) for m < b; the B_m are returned. Every index is one check
    counted in the report, and failures are appended in index order. g1
    must start at 1 and cover (count - 1) // b; a shorter g1 is a ValueError
    raised before any check.
    """
    if len(g1) <= (count - 1) // b:
        raise ValueError(
            f"g1 has {len(g1)} terms; {count} coefficients at b={b} need {(count - 1) // b + 1}"
        )
    checked, base, bad = lucas_check((count - 1,), b, residue, lambda n: g1[n[0]])
    report.checked += checked
    report.failures += [CongruenceFailure(b, a, n, lhs, rhs) for a, n, _, lhs, rhs in bad]
    return list(base.values())


def verify_apery(family: str, t: int, b_max: int, total_max: int) -> CongruenceReport:
    """Sweep a_{m+nb} == a_m * a_n(1) modulo cyclotomic(b) for one family.

    Covers every b = 1..b_max, m = 0..b-1, and n >= 0 with m + n b <=
    total_max, in order of m + n b within each b. The right side uses the
    integer-only sequence values, so the check crosses two independent
    routes to the same numbers. The residues modulo cyclotomic(b) are one
    table per modulus (qcombinatorics._multisum_residues), so a repeat at
    an equal or smaller b_max and total_max walks and reduces nothing. A
    cache emptied between two moduli costs one more walk, which at the
    cache's cap takes thousands of residues stored within the call.
    """
    _check_ints(t=(t, 0), b_max=(b_max, 1), total_max=(total_max, 0))
    at_one = catalog.apery_number_sequence(family, total_max)
    spec = catalog.apery_family_spec(family)
    report = CongruenceReport(
        subject=f"apery-{family}",
        ranges={"t": t, "b_max": b_max, "total_max": total_max},
    )
    for b in range(1, b_max + 1):
        residues = _multisum_residues(spec, (t, 0), (1, 1), total_max, b)
        check_cofactor(lambda x: IntPolynomial._raw(residues[x[0]]), total_max + 1, at_one, b, report)
    return report
