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
polynomial is built. A sweep over many moduli memoizes both per point for
the length of the call, since a point a + n b recurs for every b it can be
written at.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

from . import catalog
from .intpoly import ONE, IntPolynomial, reduce_mod_cyclotomic
from .landau import check_landau
from .qcombinatorics import (
    RatioSpec,
    _ratio_step,
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


def _step_box(spec: RatioSpec, n_box: Sequence[int]) -> tuple[int, ...]:
    n_box = tuple(n_box)
    if len(n_box) != spec.dim or any(c < 0 for c in n_box):
        raise ValueError(f"n_box {n_box} must be nonnegative of length {spec.dim}")
    return n_box


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


@dataclass
class _PointMemo:
    """Exponent vectors and q = 1 values of one spec, keyed by point, for one call."""

    spec: RatioSpec
    exponents: dict = field(default_factory=dict)
    at_one: dict = field(default_factory=dict)

    def ratio_at_one(self, n: tuple[int, ...]) -> int:
        hit = self.at_one.get(n)
        if hit is None:
            hit = self.at_one[n] = q_ratio_at_one(self.spec, n)
        return hit

    def residue(self, n: tuple[int, ...], b: int) -> IntPolynomial:
        """The ratio at n modulo cyclotomic(b); the spec must be integral."""
        exponents = self.exponents.get(n)
        if exponents is None:
            exponents = self.exponents[n] = cyclotomic_exponents(self.spec, n)
        return exponent_residue(exponents, b)


def _run_sweep(sweep: Callable, spec: RatioSpec, moduli: list[int], n_box: tuple[int, ...], jobs: int):
    """(checked, failures) of sweep over the moduli, on at most jobs workers.

    Workers are also capped by the number of moduli and of CPUs. Worker k
    takes moduli[k::workers], which spreads the costly large moduli; a stable
    sort by modulus restores the serial order of the failures.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(moduli), os.cpu_count() or 1)
    if workers > 1:
        chunks = [moduli[k::workers] for k in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(sweep, [spec] * workers, chunks, [n_box] * workers))
    else:
        parts = [sweep(spec, moduli, n_box)]
    failures = sorted((f for _, part in parts for f in part), key=lambda f: f.b)
    return sum(checked for checked, _ in parts), failures


# -- the Lucas check ------------------------------------------------------------------


def lucas_check(
    box: Sequence[int],
    split: int,
    residue: Callable,
    factor: Callable[[tuple[int, ...]], int],
    reduce: Callable,
) -> tuple[int, dict, list]:
    """Check residue(a + split n) == reduce(residue(a) * factor(n)) over a box.

    Walks every x in the box 0..box, inclusive, in lexicographic order, and
    splits it as x = a + split n with 0 <= a_i < split. Each x is one check.
    Returns the number of checks, the base residues {a: residue(a)}, and the
    mismatches (a, n, x, lhs, rhs) in walk order. The walk meets x = a before
    any other x with offset a, so residue(a) is the left side of the check
    at n = 0 and is evaluated once.
    """
    axes = [[(c, c % split, c // split) for c in range(top + 1)] for top in box]
    base: dict = {}
    mismatches = []
    for parts in itertools.product(*axes):
        x, a, n = zip(*parts)
        lhs = residue(x)
        rhs = reduce(base.setdefault(a, lhs) * factor(n))
        if lhs != rhs:
            mismatches.append((a, n, x, lhs, rhs))
    return math.prod(map(len, axes)), base, mismatches


def _sweep_moduli(
    at_one: bool, spec: RatioSpec, moduli: list[int], n_box: tuple[int, ...]
) -> tuple[int, list[CongruenceFailure]]:
    """(checked, failures) of Q(q; a + n b) == Q(q; a) Q(1; n) modulo
    cyclotomic(b) for each b, or with at_one of its q = 1 shadow modulo the
    prime b. The points a + n b are the box 0..b(N_i + 1) - 1 per axis."""
    memo = _PointMemo(spec)
    checked = 0
    failures: list[CongruenceFailure] = []
    for b in moduli:
        if at_one:
            residue, reduce = (lambda x: memo.ratio_at_one(x) % b), (lambda v: v % b)
        else:
            residue, reduce = (lambda x: memo.residue(x, b)), (lambda v: reduce_mod_cyclotomic(v, b))
        box = tuple(b * (c + 1) - 1 for c in n_box)
        count, _, bad = lucas_check(box, b, residue, memo.ratio_at_one, reduce)
        checked += count
        failures += [CongruenceFailure(b, a, n, lhs, rhs) for a, n, _, lhs, rhs in bad]
    return checked, failures


# -- ratio congruence ----------------------------------------------------------------


def verify_ratio_congruence(
    spec: RatioSpec, b_max: int, n_box: Sequence[int], jobs: int = 1
) -> CongruenceReport:
    """Sweep Q(q; a + n b) == Q(q; a) Q(1; n) modulo cyclotomic(b).

    Runs over every modulus b = 1..b_max, offset a in the box below b, and
    step n in the given box, inclusive; within a modulus in the order of
    a + n b. Requires a balanced spec that passes both step-function
    hypotheses. jobs > 1 distributes moduli over worker processes, at most
    one per modulus and per CPU; the merged report is identical to the
    serial one.
    """
    n_box = _step_box(spec, n_box)
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    _require_hypotheses(spec, "ratio congruence", subdomain=True)
    report = CongruenceReport(
        subject="ratio-congruence",
        ranges={"spec": spec.to_json_dict(), "b_max": b_max, "n_box": list(n_box)},
    )
    moduli = list(range(1, b_max + 1))
    sweep = partial(_sweep_moduli, False)
    report.checked, report.failures = _run_sweep(sweep, spec, moduli, n_box, jobs)
    return report


# -- q = 1 shadow ---------------------------------------------------------------------


def verify_plucas_at_one(
    spec: RatioSpec, p_max: int, n_box: Sequence[int], jobs: int = 1
) -> CongruenceReport:
    """Sweep the integer congruence Q(1; a + n p) == Q(1; a) Q(1; n) mod p.

    Runs over every prime p <= p_max. Same hypotheses, order and report
    shape as verify_ratio_congruence; residues are reported as constant
    polynomials.
    """
    n_box = _step_box(spec, n_box)
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    _require_hypotheses(spec, "prime congruence", subdomain=True)
    primes = [p for p in range(2, p_max + 1) if _is_prime(p)]
    report = CongruenceReport(
        subject="plucas-at-one",
        ranges={"spec": spec.to_json_dict(), "p_max": p_max, "n_box": list(n_box)},
    )
    sweep = partial(_sweep_moduli, True)
    report.checked, report.failures = _run_sweep(sweep, spec, primes, n_box, jobs)
    return report


# -- scaled-point identity --------------------------------------------------------------


def verify_inter2_identity(spec: RatioSpec, b: int, n_box: Sequence[int]) -> CongruenceReport:
    """Sweep Q(q; n b) == Q(1; n) modulo cyclotomic(b) over the box.

    The Lucas check with split 1, whose only offset is a = 0 with Q(q; 0) = 1.
    Needs only balance and integrality (the subdomain condition plays no
    role here).
    """
    n_box = _step_box(spec, n_box)
    if b < 1:
        raise ValueError("b must be >= 1")
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
        lambda v: reduce_mod_cyclotomic(v, b),
    )
    report.failures = [CongruenceFailure(b, None, n, lhs, rhs) for _, n, _, lhs, rhs in bad]
    return report


# -- Apery-type q-analogues ----------------------------------------------------------------


@lru_cache(maxsize=512)
def apery_polynomial(family: str, t: int, n: int) -> IntPolynomial:
    """The degree-weighted Apery-type sum of kind 'a' or 'b' at n.

    Sums q^(t k) times the family's ratio (catalog.apery_family_spec) at
    (k, n - k), stepping along the antidiagonal from (0, n), where it is 1.
    That is sum_k q^(t k) qbinom(n, k)^2 qbinom(n+k, k)^r with r = 1 for 'a'
    and r = 2 for 'b', which the tests check. At q = 1 these collapse to the
    classical integer sequences (catalog.apery_number_sequence). The memo
    keeps the 512 most recently used sums.
    """
    spec = catalog.apery_family_spec(family)
    if t < 0 or n < 0:
        raise ValueError("t and n must be nonnegative")
    value = total = ONE
    for k in range(1, n + 1):
        value = _ratio_step(spec, value, (k - 1, n - k + 1), (k, n - k))
        total = total + value.shift(t * k)
    return total


def check_cofactor(
    coeffs: Sequence[IntPolynomial], g1: Sequence[int], b: int, report: CongruenceReport
) -> list[IntPolynomial]:
    """Check coeffs[m + n b] == B_m * g1[n] modulo cyclotomic(b) over the list.

    The one-variable Lucas check: B_m is coeffs[m] modulo cyclotomic(b) for
    m < b; the B_m are returned. Every index is one check counted in the
    report, and failures are appended in index order. g1 must cover
    len(coeffs) // b and start at 1.
    """
    checked, base, bad = lucas_check(
        (len(coeffs) - 1,),
        b,
        lambda x: reduce_mod_cyclotomic(coeffs[x[0]], b),
        lambda n: g1[n[0]],
        lambda v: reduce_mod_cyclotomic(v, b),
    )
    report.checked += checked
    report.failures += [CongruenceFailure(b, a, n, lhs, rhs) for a, n, _, lhs, rhs in bad]
    return list(base.values())


def verify_apery(family: str, t: int, b_max: int, total_max: int) -> CongruenceReport:
    """Sweep a_{m+nb} == a_m * a_n(1) modulo cyclotomic(b) for one family.

    Covers every b = 1..b_max, m = 0..b-1, and n >= 0 with m + n b <=
    total_max, in order of m + n b within each b. The right side uses the
    integer-only sequence values, so the check crosses two independent
    routes to the same numbers.
    """
    if b_max < 1 or total_max < 0:
        raise ValueError("b_max must be >= 1 and total_max >= 0")
    at_one = catalog.apery_number_sequence(family, total_max)
    report = CongruenceReport(
        subject=f"apery-{family}",
        ranges={"t": t, "b_max": b_max, "total_max": total_max},
    )
    coeffs = [apery_polynomial(family, t, n) for n in range(total_max + 1)]
    for b in range(1, b_max + 1):
        check_cofactor(coeffs, at_one, b, report)
    return report
