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
    _mul_one_plus_qk,
    _mul_schoolbook,
    _reduce_cyclotomic,
    cyclotomic,
    div_one_minus_qk_exact,
    mul_one_minus_qk,
    reduce_mod_cyclotomic,
)
from oracles import (
    add_loop,
    cyclotomic_by_division,
    div_one_minus_qk_exact_loop,
    divide_monic,
    is_monic,
    monomial,
    mul_one_minus_qk_loop,
    reduce_mod_cyclotomic_loop,
    rem_monic,
)

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


# Coefficients up to 10^30 in size, with small ones (and zeros) common so that
# sums cancel.
wide_ints = st.one_of(st.integers(-2, 2), st.integers(-(10**30), 10**30))


def boundary_lengths(k):
    """Lengths around the switch between the two loop forms of a stride-k
    kernel: k*k just below, at and just above the length, taken both as the
    quotient length m and as the input length m + k; k >= m; short inputs."""
    sq = k * k
    picks = (0, 1, k - 1, k, sq - k - 1, sq - k, sq - k + 1, sq - 1, sq, sq + 1)
    return sorted({n for n in picks if n >= 0})


@st.composite
def canonical_coeffs(draw, length):
    """A canonical coefficient tuple of exactly the given length."""
    if not length:
        return ()
    body = draw(st.lists(wide_ints, min_size=length - 1, max_size=length - 1))
    return tuple(body) + (draw(wide_ints.filter(bool)),)


def div_outcome(div, a, k):
    """The quotient's coefficients, or ("NotDivisible", remainder coefficients)."""
    try:
        return div(a, k).coeffs
    except NotDivisible as exc:
        return "NotDivisible", exc.remainder.coeffs


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

    @given(st.lists(wide_ints, max_size=30), st.lists(wide_ints, max_size=30), st.data())
    def test_add_matches_loop_oracle(self, a, b, data):
        a, b = P(a).coeffs, P(b).coeffs
        if data.draw(st.booleans()):
            # Cancel a tail of a so the sum must shed trailing zeros.
            cut = data.draw(st.integers(0, len(a)))
            head = data.draw(st.lists(wide_ints, min_size=cut, max_size=cut))
            b = P(tuple(head) + tuple(-x for x in a[cut:])).coeffs
        assert (P(a) + P(b)).coeffs == add_loop(a, b).coeffs
        assert (P(b) + P(a)).coeffs == add_loop(a, b).coeffs

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
        assert P((1, 2, 2, 1)).evaluate(1) == 6
        assert ZERO.evaluate(1) == 0


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

    def test_k_below_one_rejected(self):
        a = P((1, 2, 3))
        for k in (0, -1, -2):
            with pytest.raises(ValueError):
                mul_one_minus_qk(a, k)
            with pytest.raises(ValueError):
                div_one_minus_qk_exact(a, k)
        with pytest.raises(ValueError):
            mul_one_minus_qk(ZERO, 0)
        with pytest.raises(ValueError):
            div_one_minus_qk_exact(ZERO, 0)

    @settings(max_examples=40)
    @given(st.integers(1, 9), st.data())
    def test_mul_matches_loop_oracle(self, k, data):
        for n in boundary_lengths(k):
            a = P(data.draw(canonical_coeffs(n)))
            assert mul_one_minus_qk(a, k).coeffs == mul_one_minus_qk_loop(a, k).coeffs

    @settings(max_examples=40)
    @given(st.integers(1, 9), st.data())
    def test_div_matches_loop_oracle(self, k, data):
        # Per quotient length: a product with (1 - q^k), which divides; that
        # product with one coefficient moved; and the drawn coefficients alone.
        for m in boundary_lengths(k):
            quo = data.draw(canonical_coeffs(m))
            exact = mul_one_minus_qk_loop(P(quo), k)
            inputs = [exact, P(quo)]
            if exact:
                i = data.draw(st.integers(0, len(exact.coeffs) - 1))
                inputs.append(exact + monomial(i, data.draw(wide_ints.filter(bool))))
            for a in inputs:
                expected = div_outcome(div_one_minus_qk_exact_loop, a, k)
                assert div_outcome(div_one_minus_qk_exact, a, k) == expected
            assert div_outcome(div_one_minus_qk_exact, exact, k) == quo

    @given(poly(st.lists(wide_ints, max_size=24)), st.integers(1, 12))
    def test_mul_one_plus_qk_matches_schoolbook(self, a, k):
        plus = _mul_one_plus_qk(a, k)
        assert plus.coeffs == P(_mul_schoolbook(a.coeffs, (1,) + (0,) * (k - 1) + (1,))).coeffs
        # (1 + q^k)(1 - q^k) = 1 - q^2k
        assert mul_one_minus_qk(plus, k) == mul_one_minus_qk(a, 2 * k)

    def test_mul_one_plus_qk_edges(self):
        assert _mul_one_plus_qk(ONE, 2) == P((1, 0, 1))
        assert _mul_one_plus_qk(P((1, -1)), 1) == P((1, 0, -1))
        assert _mul_one_plus_qk(ZERO, 3) == ZERO
        for k in (0, -1, -2):
            with pytest.raises(ValueError):
                _mul_one_plus_qk(P((1, 2, 3)), k)
            with pytest.raises(ValueError):
                _mul_one_plus_qk(ZERO, k)

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
            assert is_monic(cyclotomic(b))

    def test_value_at_one(self):
        # prime power p^k -> p, otherwise 1 (b >= 2)
        expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 1, 7: 7, 8: 2, 9: 3, 10: 1,
                    12: 1, 16: 2, 25: 5, 27: 3, 30: 1, 49: 7, 64: 2, 100: 1}
        for b, v in expected.items():
            assert cyclotomic(b).evaluate(1) == v, b
        assert cyclotomic(1).evaluate(1) == 0

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
        # Degree above b so the exponent fold runs: by residue sums when the
        # length is at least b*b, by blocks of b when it lies between.
        sparse = monomial(10_001) + monomial(5_000) + 3
        dense = P([(-1) ** j * (j * j + 7) for j in range(1_000)])
        cases = ((sparse, 5), (dense, 31), (dense, 200), (sparse, 200))
        assert [len(a.coeffs) >= b * b for a, b in cases] == [True, True, False, False]
        for a, b in cases:
            assert len(a.coeffs) > b
            assert reduce_mod_cyclotomic(a, b) == rem_monic(a, cyclotomic(b))
            assert reduce_mod_cyclotomic(a, b) == reduce_mod_cyclotomic_loop(a, b)

    @settings(max_examples=40)
    @given(st.integers(1, 9), st.data())
    def test_matches_loop_oracle(self, b, data):
        for n in boundary_lengths(b) + [b + 1, 2 * b + 1]:
            a = P(data.draw(canonical_coeffs(n)))
            assert reduce_mod_cyclotomic(a, b).coeffs == reduce_mod_cyclotomic_loop(a, b).coeffs

    def test_b_equals_one_is_evaluation(self):
        a = P((1, 2, 3, 4))
        assert reduce_mod_cyclotomic(a, 1) == P((10,))


class TestResidueProduct:
    # The residue route multiplies reduced residues as plain lists:
    # _mul_schoolbook, then the one reduction helper, _reduce_cyclotomic.
    @given(st.integers(1, 40), st.data())
    def test_matches_reduced_product(self, b, data):
        phi = cyclotomic(b).coeffs
        residue = st.integers(0, len(phi) - 1).flatmap(canonical_coeffs)
        a, c = data.draw(residue), data.draw(residue)
        product = _reduce_cyclotomic(_mul_schoolbook(a, c), b)
        assert tuple(product) == rem_monic(P(a) * P(c), cyclotomic_by_division(b)).coeffs

    @settings(max_examples=60)
    @given(st.integers(1, 40), st.data())
    def test_helper_matches_long_division(self, b, data):
        # Length b takes no fold, 2b the block fold (b >= 3) and b*b the
        # residue-class fold; b = 1 and 2 have degree-1 moduli. Trailing
        # zeros are allowed in the input and cut from the result.
        n = data.draw(st.sampled_from((b, 2 * b, b * b)))
        c = data.draw(st.lists(wide_ints, min_size=n, max_size=n))
        expected = rem_monic(P(c), cyclotomic_by_division(b)).coeffs
        assert tuple(_reduce_cyclotomic(c, b)) == expected
        assert tuple(_reduce_cyclotomic(tuple(c), b)) == expected

    def test_canonical_remainder(self):
        # q^2 + q + 1 leaves nothing mod itself; q^3 leaves 1; lists shorter
        # than the modulus only lose their trailing zeros.
        assert _reduce_cyclotomic([1, 1, 1], 3) == []
        assert _reduce_cyclotomic([0, 0, 0, 1], 3) == [1]
        assert _reduce_cyclotomic([5, 0], 3) == [5]
        assert _reduce_cyclotomic([], 3) == []


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
