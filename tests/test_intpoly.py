"""intpoly unit tests: hand-derived frozen values plus property checks."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlucas.intpoly import (
    NEG_INF,
    ONE,
    ZERO,
    IntPolynomial,
    NotDivisible,
    NotMonic,
    _mul_schoolbook,
    cyclotomic,
    div_one_minus_qk_exact,
    monomial,
    mul_one_minus_qk,
    reduce_mod_cyclotomic,
    rem_monic,
)
from oracles import cyclotomic_by_division, divide_monic

P = IntPolynomial
Q = P((0, 1))


def sieve_totients(limit):
    # Independent oracle: phi(n) by the classic sieve.
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


small_coeffs = st.lists(st.integers(-50, 50), max_size=12)
big_coeffs = st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=40)


def poly(coeffs=small_coeffs):
    return st.builds(P, coeffs)


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert P((1, 2, 0, 0)).coeffs == (1, 2)
        assert P((0,)).coeffs == ()
        assert P(()).coeffs == ()

    def test_zero_degree_is_sentinel(self):
        assert ZERO.degree == NEG_INF
        assert ZERO.degree < 0
        assert not isinstance(ZERO.degree, int)
        assert P((5,)).degree == 0
        assert Q.degree == 1

    def test_equality_and_hash(self):
        assert P((1, 1)) == P([1, 1, 0])
        assert hash(P((1, 1))) == hash(P([1, 1, 0]))
        assert P((2,)) == 2
        assert ZERO == 0
        assert P((1, 1)) != P((1,))

    def test_bool(self):
        assert not ZERO
        assert ONE


class TestRingOps:
    def test_add_sub(self):
        assert P((1, 2)) + P((3, -2, 5)) == P((4, 0, 5))
        assert P((1, 1)) - P((1, 1)) == ZERO
        assert P((1,)) + 1 == P((2,))
        assert 1 - Q == P((1, -1))

    def test_mul_frozen(self):
        # (1+q)(1+q+q^2) = 1+2q+2q^2+q^3
        assert P((1, 1)) * P((1, 1, 1)) == P((1, 2, 2, 1))
        assert P((1, 1)) * 0 == ZERO
        assert 3 * P((1, -1)) == P((3, -3))

    def test_pow(self):
        assert (1 + Q) ** 2 == P((1, 2, 1))
        assert Q**5 == monomial(5)
        assert ZERO**0 == ONE
        with pytest.raises(ValueError):
            Q ** (-1)

    def test_shift(self):
        assert P((1, 2)).shift(2) == P((0, 0, 1, 2))
        assert ZERO.shift(3) == ZERO

    @given(poly(), poly(), poly())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(big_coeffs, big_coeffs)
    def test_big_coeff_product_evaluates_pointwise(self, a, b):
        pa, pb = P(a), P(b)
        for x in (-3, -1, 0, 1, 2, 10**6):
            assert (pa * pb).evaluate(x) == pa.evaluate(x) * pb.evaluate(x)

    def test_large_product_matches_binomial_kernel(self):
        # 80 x 79 coefficient pairs, against the independent (1 - q^k) kernel:
        # b = prod_{k=1..12} (1 - q^k), so a * b is mul_one_minus_qk applied to a
        # once for each k.
        a = P([(-1) ** i * (i**3 + 1) for i in range(80)])
        b, expected = ONE, a
        for k in range(1, 13):
            b = mul_one_minus_qk(b, k)
            expected = mul_one_minus_qk(expected, k)
        assert len(a.coeffs) * len(b.coeffs) > 4096
        assert a * b == expected
        assert b * a == expected


class TestEvaluation:
    def test_evaluate(self):
        p = P((1, -2, 3))  # 3q^2 - 2q + 1
        assert p.evaluate(2) == 9
        from fractions import Fraction

        assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)

    def test_eval_at_one(self):
        assert P((1, 2, 2, 1)).eval_at_one() == 6
        assert ZERO.eval_at_one() == 0


class TestDivision:
    @given(poly(), st.lists(st.integers(-9, 9), max_size=5))
    def test_long_division_oracle_round_trip(self, a, tail):
        m = P(tuple(tail) + (1,))
        assert divide_monic(a * m, m) == a

    def test_rem_monic_frozen(self):
        # q^3 = q(q^2 + 1) - q
        assert rem_monic(monomial(3), P((1, 0, 1))) == P((0, -1))
        # remainder mod a degree-1 monic is evaluation
        assert rem_monic(P((1, 1, 1, 1, 1)), P((-1, 1))) == P((5,))
        assert rem_monic(P((1, 1)), P((0, 0, 1))) == P((1, 1))

    def test_rem_monic_rejects_nonmonic(self):
        with pytest.raises(NotMonic):
            rem_monic(ONE, P((1, 2)))
        with pytest.raises(NotMonic):
            rem_monic(ONE, P((5,)))
        with pytest.raises(NotMonic):
            rem_monic(ONE, ZERO)

    @given(poly(), poly(st.lists(st.integers(-9, 9), min_size=1, max_size=6)))
    def test_rem_monic_reconstruction(self, a, mtail):
        m = P(tuple(mtail.coeffs) + (0,) * (1 - len(mtail.coeffs)) + (1,))
        r = rem_monic(a, m)
        assert r.degree < m.degree
        quo = divide_monic(a - r, m)
        assert quo * m + r == a


class TestBinomialFactors:
    def test_mul_one_minus_qk(self):
        assert mul_one_minus_qk(ONE, 3) == P((1, 0, 0, -1))
        assert mul_one_minus_qk(P((1, 1)), 1) == P((1, 0, -1))
        assert mul_one_minus_qk(ZERO, 2) == ZERO

    def test_div_one_minus_qk_exact(self):
        assert div_one_minus_qk_exact(P((1, 0, -1)), 1) == P((1, 1))
        assert div_one_minus_qk_exact(P((1, 0, 0, -1)), 3) == ONE

    def test_div_one_minus_qk_failure(self):
        with pytest.raises(NotDivisible) as exc:
            div_one_minus_qk_exact(P((1, 1)), 2)
        assert exc.value.remainder == P((1, 1))
        with pytest.raises(NotDivisible):
            div_one_minus_qk_exact(P((1, 1, 1)), 2)

    @given(poly(), st.integers(1, 8))
    def test_binomial_round_trip(self, a, k):
        prod = mul_one_minus_qk(a, k)
        assert div_one_minus_qk_exact(prod, k) == a
        assert prod == a * P((1,) + (0,) * (k - 1) + (-1,))


class TestCyclotomic:
    def test_small_frozen(self):
        assert cyclotomic(1) == P((-1, 1))
        assert cyclotomic(2) == P((1, 1))
        assert cyclotomic(3) == P((1, 1, 1))
        assert cyclotomic(4) == P((1, 0, 1))
        assert cyclotomic(6) == P((1, -1, 1))
        assert cyclotomic(12) == P((1, 0, -1, 0, 1))

    def test_product_identity_small(self):
        for b in range(1, 61):
            prod = ONE
            for d in range(1, b + 1):
                if b % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == monomial(b) - 1, b

    def test_moebius_product_matches_long_division(self):
        for b in range(1, 301):
            assert cyclotomic(b) == cyclotomic_by_division(b), b

    def test_degree_is_totient(self):
        phi = sieve_totients(120)
        for b in range(1, 121):
            assert cyclotomic(b).degree == phi[b], b
            assert cyclotomic(b).is_monic()

    def test_value_at_one(self):
        # prime power p^k -> p, otherwise 1 (b >= 2)
        expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 1, 7: 7, 8: 2, 9: 3, 10: 1,
                    12: 1, 16: 2, 25: 5, 27: 3, 30: 1, 49: 7, 64: 2, 100: 1}
        for b, v in expected.items():
            assert cyclotomic(b).eval_at_one() == v, b
        assert cyclotomic(1).eval_at_one() == 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_memo_bound_holds_and_eviction_keeps_results(self):
        # Each index is one entry: the Moebius product calls no other index.
        phi = sieve_totients(8200)
        primes = [p for p in range(3, 8200) if phi[p] == p - 1][:1023]
        cyclotomic.cache_clear()
        try:
            assert cyclotomic(2) == P((1, 1))
            for p in primes:
                cyclotomic(p)
            info = cyclotomic.cache_info()
            assert info.maxsize == 1024 and info.currsize == 1024
            assert info.misses == 1024
            assert cyclotomic(primes[-1]) == P((1,) * primes[-1])
            assert cyclotomic.cache_info().misses == info.misses  # kept
            cyclotomic(4)  # a new index evicts phi_2, the oldest entry
            assert cyclotomic(2) == P((1, 1))
            assert cyclotomic.cache_info().misses == info.misses + 2  # evicted
            assert cyclotomic.cache_info().currsize == 1024
        finally:
            cyclotomic.cache_clear()


class TestReduceModCyclotomic:
    @given(poly(st.lists(st.integers(-20, 20), max_size=80)), st.integers(1, 30))
    def test_matches_rem_monic(self, a, b):
        assert reduce_mod_cyclotomic(a, b) == rem_monic(a, cyclotomic(b))

    def test_fold_path_engaged(self):
        # Degree far above b so the exponent-folding path runs.
        a = monomial(10_001) + monomial(5_000) + 3
        assert reduce_mod_cyclotomic(a, 5) == rem_monic(a, cyclotomic(5))

    def test_b_equals_one_is_evaluation(self):
        a = P((1, 2, 3, 4))
        assert reduce_mod_cyclotomic(a, 1) == P((10,))


class TestSerialization:
    def test_strings_round_trip(self):
        p = P((10**40, -3, 0, 7))
        assert p.to_strings() == [str(10**40), "-3", "0", "7"]
        assert IntPolynomial.from_strings(p.to_strings()) == p
        assert ZERO.to_strings() == []

    def test_pickle_round_trip(self):
        p = P((1, -2, 0, 5))
        assert pickle.loads(pickle.dumps(p)) == p

    def test_str_formatting(self):
        assert str(cyclotomic(12)) == "q^4 - q^2 + 1"
        assert str(ZERO) == "0"
        assert str(P((1, 1))) == "q + 1"
        assert str(P((-3, 0, 0, 2))) == "2*q^3 - 3"
        assert str(P((0, -1))) == "-q"
