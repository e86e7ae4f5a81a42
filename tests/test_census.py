"""A census of one-variable factorial ratios with two numerator and three
denominator factorials: (e1 n)! (e2 n)! / ((f1 n)! (f2 n)! (f3 n)!).

J. W. Bober (J. London Math. Soc. 79 (2009)) classified the balanced ratios
with one more denominator factorial than numerator ones that are integral.
This census takes every balanced, primitive such spec with entries in 1..12
(equal sums, no entry on both sides, gcd 1), checks check_landau's
integrality against a breakpoint oracle on each, and shows on the integral
ones that the sweeps' subdomain hypothesis is sharp: every one fails it,
and every one breaks the congruence that hypothesis guards, while the
scaled-point identity, which needs integrality only, holds on all of them.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from qlucas.congruence import (
    HypothesisViolated,
    _is_prime,
    lucas_check,
    verify_inter2_identity,
    verify_plucas_at_one,
    verify_ratio_congruence,
)
from qlucas.landau import check_landau, delta_at
from qlucas.qcombinatorics import RatioSpec, q_ratio_at_one, q_ratio_mod

TOP = 12


def census() -> list[RatioSpec]:
    specs = []
    for e in itertools.combinations_with_replacement(range(1, TOP + 1), 2):
        for f in itertools.combinations_with_replacement(range(1, TOP + 1), 3):
            if sum(e) == sum(f) and not set(e) & set(f) and math.gcd(*e, *f) == 1:
                specs.append(RatioSpec(1, tuple((c,) for c in e), tuple((c,) for c in f)))
    return specs


def integral_by_breakpoints(spec: RatioSpec) -> bool:
    """delta >= 0 on [0, 1): delta is constant from each k/c up to the next,
    c an entry, so its least value is taken at one of them."""
    points = {Fraction(k, c) for (c,) in spec.all_vectors() for k in range(c)}
    return min(delta_at(spec, (x,)) for x in points) >= 0


def first_mismatch(moduli, check) -> int:
    """The first modulus at which check(modulus) finds a mismatch."""
    return next(s for s in moduli if check(s))


def q_side_fails(spec: RatioSpec, b: int) -> bool:
    """Q(q; a + n b) == Q(q; a) Q(1; n) modulo cyclotomic(b) fails at some x < 3b."""
    residue = lambda x: q_ratio_mod(spec, x, b)
    return bool(lucas_check((3 * b - 1,), b, residue, lambda n: q_ratio_at_one(spec, n))[2])


def prime_side_fails(spec: RatioSpec, p: int) -> bool:
    """Q(1; a + n p) == Q(1; a) Q(1; n) modulo p fails at some x < 3p."""
    residue = lambda x: q_ratio_at_one(spec, x) % p
    at_one = lambda n: q_ratio_at_one(spec, n)
    return bool(lucas_check((3 * p - 1,), p, residue, at_one, lambda v: v % p)[2])


@pytest.fixture(scope="module")
def integral():
    specs = census()
    assert len(specs) == 552
    kept = []
    for spec in specs:
        verdict = check_landau(spec).integrality
        assert verdict == integral_by_breakpoints(spec), spec
        if verdict:
            kept.append(spec)
    assert len(kept) == 30
    return kept


def test_every_integral_spec_fails_the_subdomain_hypothesis(integral):
    below_one = "step function is below 1 on the distinguished subdomain"
    for spec in integral:
        assert not check_landau(spec).criterion_D, spec
        with pytest.raises(HypothesisViolated, match=f"^ratio congruence: {below_one}$"):
            verify_ratio_congruence(spec, 3, (2,))
        with pytest.raises(HypothesisViolated, match=f"^prime congruence: {below_one}$"):
            verify_plucas_at_one(spec, 3, (2,))


def test_each_refusal_is_sharp(integral):
    q_side = Counter(first_mismatch(itertools.count(2), lambda b: q_side_fails(s, b)) for s in integral)
    assert q_side == {2: 15, 3: 15}
    prime_side = Counter(
        first_mismatch(filter(_is_prime, itertools.count(2)), lambda p: prime_side_fails(s, p))
        for s in integral
    )
    assert prime_side == {2: 3, 3: 16, 5: 11}


def test_scaled_point_identity_holds_on_every_integral_spec(integral):
    for spec in integral:
        for b in range(2, 6):
            report = verify_inter2_identity(spec, b, (4,))
            assert report.ok and report.checked == 5, (spec, b)
