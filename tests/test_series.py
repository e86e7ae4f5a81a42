"""series tests: box construction, specialization oracle, residue extraction."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlucas import catalog
from qlucas.congruence import HypothesisViolated, apery_polynomial, verify_plucas_at_one
from qlucas.intpoly import IntPolynomial, NotDivisible, reduce_mod_cyclotomic
from qlucas.landau import check_landau
from qlucas.qcombinatorics import multisum, q_binomial, q_ratio
from qlucas.series import (
    InsufficientTruncation,
    NotPrime,
    TruncatedSeries,
    build_F,
    extract_cofactor,
    specialize,
    verify_definition_Ld,
)
from strategies import balanced_specs

P = IntPolynomial

CENTRAL = catalog.central_binomial_spec()
APERY = catalog.apery_spec()
INVERSE = catalog.inverse_central_spec()


def binomial_table_series(order):
    # sum over n of binomial(n1+n2, n1) x1^n1 x2^n2, integer coefficients
    import math

    coeffs = {
        (i, j): P((math.comb(i + j, i),))
        for i in range(order + 1)
        for j in range(order + 1)
    }
    return TruncatedSeries(2, (order, order), coeffs)


class TestTruncatedSeries:
    def test_canonical_drops_zeros(self):
        s = TruncatedSeries(1, (3,), {(0,): P((1,)), (2,): P(())})
        assert s.coeffs == {(0,): P((1,))}
        assert s.coeff((2,)) == P(())
        assert s.coeff((1,)) == P(())

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0, (), {})
        with pytest.raises(ValueError):
            TruncatedSeries(1, (2,), {(3,): P((1,))})
        with pytest.raises(ValueError):
            TruncatedSeries(1, (2,), {(0, 0): P((1,))})
        with pytest.raises(ValueError):
            TruncatedSeries(1, (2,), {(0,): 5})

    def test_from_coefficients_and_values(self):
        s = TruncatedSeries.from_coefficients([1, 2, 6])
        assert s.cap == (2,)
        assert s.coeff((1,)) == P((2,))
        assert s.values_at_q(1) == [1, 2, 6]
        t = TruncatedSeries.from_coefficients([P((1,)), P((0, 1))])
        assert t.values_at_q(Fraction(1, 2)) == [1, Fraction(1, 2)]

    def test_json_round_trip(self):
        s = TruncatedSeries(2, (1, 1), {(0, 0): P((1,)), (1, 1): P((1, 3, 4, 3, 1))})
        data = s.to_json_list()
        assert data[0] == {"exponents": [0, 0], "coeff": ["1"]}
        assert TruncatedSeries.from_json_list(2, (1, 1), data) == s

    def test_from_json_list_rejects_repeated_exponent(self):
        # the last entry used to win, so the series read differed from the file
        data = [
            {"exponents": [0, 1], "coeff": ["1"]},
            {"exponents": [1, 0], "coeff": ["2"]},
            {"exponents": [0, 1], "coeff": ["3"]},
        ]
        with pytest.raises(ValueError, match=r"exponent \[0, 1\] is listed twice"):
            TruncatedSeries.from_json_list(2, (1, 1), data)


class TestBuildF:
    def test_central_line(self):
        s = build_F(CENTRAL, (5,))
        assert s.coeff((0,)) == P((1,))
        for n in range(6):
            assert s.coeff((n,)) == q_binomial(2 * n, n)

    def test_apery_box(self):
        s = build_F(APERY, (3, 3))
        assert s.coeff((1, 1)) == P((1, 3, 4, 3, 1))
        for n, c in s.items():
            assert c == q_ratio(APERY, n)

    def test_refuses_non_integral(self):
        with pytest.raises(HypothesisViolated):
            build_F(INVERSE, (4,))

    def test_truncation_monotone(self):
        small = build_F(CENTRAL, (4,))
        large = build_F(CENTRAL, (6,))
        for n in range(5):
            assert small.coeff((n,)) == large.coeff((n,))


class TestSpecialize:
    def test_one_var_identity(self):
        s = build_F(CENTRAL, (5,))
        out = specialize(s, (0,), (1,), 5)
        assert out.cap == (5,)
        for n in range(6):
            assert out.coeff((n,)) == s.coeff((n,))

    def test_apery_diagonal_matches_sum_formula(self):
        s = build_F(APERY, (6, 6))
        for t in (0, 1, 2):
            out = specialize(s, (t, 0), (1, 1), 6)
            for n in range(7):
                assert out.coeff((n,)) == apery_polynomial("a", t, n), (t, n)

    def test_apery_b_diagonal_matches_sum_formula(self):
        s = build_F(catalog.apery_family_spec("b"), (12, 12))
        for t in range(4):
            out = specialize(s, (t, 0), (1, 1), 12)
            for n in range(13):
                assert out.coeff((n,)) == apery_polynomial("b", t, n), (t, n)

    def test_binomial_diagonal_matches_direct_sum(self):
        spec = catalog.binomial_spec(2)
        s = build_F(spec, (5, 5))
        out = specialize(s, (0, 0), (1, 1), 5)
        for n in range(6):
            expected = P(())
            for k in range(n + 1):
                expected = expected + q_binomial(n, k) ** 2
            assert out.coeff((n,)) == expected, n

    def test_values_at_one_match_integer_sequence(self):
        s = build_F(APERY, (8, 8))
        out = specialize(s, (0, 0), (1, 1), 8)
        seq = catalog.apery_number_sequence("a", 8)
        assert [c.evaluate(1) for _, c in out.items()] == seq

    def test_weighting_shifts_q(self):
        s = build_F(CENTRAL, (4,))
        out = specialize(s, (3,), (2,), 8)
        # coefficient of x^(2n) is q^(3n) * qbinom(2n, n); odd powers vanish
        assert out.coeff((3,)) == P(())
        assert out.coeff((4,)) == q_binomial(4, 2).shift(6)

    def test_insufficient_truncation(self):
        s = build_F(APERY, (4, 4))
        with pytest.raises(InsufficientTruncation):
            specialize(s, (0, 0), (1, 0), 4)
        with pytest.raises(InsufficientTruncation):
            specialize(s, (0, 0), (1, 1), 10)
        with pytest.raises(ValueError):
            specialize(s, (0,), (1, 1), 4)


class TestMultisum:
    @settings(max_examples=40, deadline=None)
    @given(balanced_specs(max_dim=3), st.data())
    def test_matches_specialized_box(self, spec, data):
        # Oracle: the whole box 0..order // m_j, substituted and truncated.
        assume(check_landau(spec).integrality)
        t = data.draw(st.tuples(*[st.integers(0, 3)] * spec.dim))
        m = data.draw(st.tuples(*[st.integers(1, 3)] * spec.dim))
        order = data.draw(st.integers(0, 8))
        series = specialize(build_F(spec, tuple(order // mj for mj in m)), t, m, order)
        assert multisum(spec, t, m, order) == [series.coeff((N,)) for N in range(order + 1)]

    def test_refuses_zero_m(self):
        with pytest.raises(ValueError, match=r"^m\[1\] = 0 folds unboundedly many exponents"):
            multisum(APERY, (0, 0), (1, 0), 4)

    def test_non_polynomial_point_raises(self):
        with pytest.raises(NotDivisible):
            multisum(INVERSE, (0,), (1,), 4)


class TestExtractCofactor:
    def test_central_q_lucas_pattern(self):
        fq = build_F(CENTRAL, (20,))
        g1 = catalog.central_power_sequence(1, 20)
        residues, report = extract_cofactor(fq, g1, 2, 20)
        assert report.ok
        assert report.checked == 21
        assert len(residues) == 2
        assert residues[0] == P((1,))
        assert residues[1] == reduce_mod_cyclotomic(q_binomial(2, 1), 2)

    def test_apery_specialization_pattern(self):
        s = build_F(APERY, (12, 12))
        fq = specialize(s, (1, 0), (1, 1), 12)
        g1 = catalog.apery_number_sequence("a", 12)
        for b in (2, 3, 4):
            residues, report = extract_cofactor(fq, g1, b, 12)
            assert report.ok, b
            assert len(residues) == b

    def test_wrong_sequence_reports_failures(self):
        fq = build_F(CENTRAL, (10,))
        residues, report = extract_cofactor(fq, [1] * 11, 2, 10)
        assert not report.ok
        first = report.failures[0]
        assert first.b == 2
        assert first.a == (0,)
        assert first.n == (1,)

    def test_validation(self):
        fq = build_F(CENTRAL, (10,))
        with pytest.raises(ValueError):
            extract_cofactor(fq, [2, 1], 2, 4)
        with pytest.raises(InsufficientTruncation):
            extract_cofactor(fq, [1, 2], 2, 12)
        with pytest.raises(InsufficientTruncation):
            extract_cofactor(fq, [1, 2], 3, 9)
        with pytest.raises(ValueError):
            extract_cofactor(build_F(APERY, (2, 2)), [1], 2, 2)


class TestVerifyDefinitionLd:
    def test_central_powers_pass(self):
        for r in (1, 2):
            g = TruncatedSeries.from_coefficients(catalog.central_power_sequence(r, 20))
            for p in (2, 3):
                report = verify_definition_Ld(g, p, 1, 20)
                assert report.ok, (r, p)
                assert report.checked == 21

    def test_prime_power_modulus(self):
        g = TruncatedSeries.from_coefficients(catalog.central_power_sequence(1, 20))
        report = verify_definition_Ld(g, 3, 2, 20)
        assert report.ok
        assert report.cofactor[(2,)] == 6 % 3

    def test_two_variable_family(self):
        g = binomial_table_series(8)
        for p in (2, 3):
            report = verify_definition_Ld(g, p, 1, 8)
            assert report.ok, p
            assert report.checked == 81

    def test_geometric_passes(self):
        g = TruncatedSeries.from_coefficients(catalog.geometric_sequence(12))
        assert verify_definition_Ld(g, 2, 1, 12).ok

    def test_factorial_fails_with_witness(self):
        g = TruncatedSeries.from_coefficients(catalog.factorial_sequence(16))
        report = verify_definition_Ld(g, 2, 1, 16)
        assert not report.ok
        first = report.failures[0]
        assert first.n == (2,)
        assert first.lhs_residue == P(())
        assert first.rhs_residue == P((1,))

    def test_cofactor_is_forced_prefix(self):
        g = TruncatedSeries.from_coefficients(catalog.central_power_sequence(1, 15))
        report = verify_definition_Ld(g, 5, 1, 15)
        seq = catalog.central_power_sequence(1, 4)
        assert report.cofactor == {(a,): seq[a] % 5 for a in range(5)}

    def test_agrees_with_the_prime_sweep(self):
        # At order p(N + 1) - 1, L_d of the q = 1 sequence checks the p(N + 1)
        # indices that the prime sweep spends on p.
        n = 4
        for r in (1, 2, 3):
            checked = 0
            for p in (2, 3, 5):
                order = p * (n + 1) - 1
                g = TruncatedSeries.from_coefficients(catalog.central_power_sequence(r, order))
                report = verify_definition_Ld(g, p, 1, order)
                assert report.ok, (r, p)
                assert report.checked == p * (n + 1)
                checked += report.checked
            sweep = verify_plucas_at_one(catalog.central_binomial_spec(r), 5, (n,))
            assert sweep.ok
            assert sweep.checked == checked

    def test_validation(self):
        g = TruncatedSeries.from_coefficients([1, 1, 2])
        with pytest.raises(NotPrime):
            verify_definition_Ld(g, 4, 1, 2)
        with pytest.raises(NotPrime):
            verify_definition_Ld(g, 1, 1, 2)
        with pytest.raises(ValueError):
            verify_definition_Ld(g, 2, 0, 2)
        with pytest.raises(InsufficientTruncation):
            verify_definition_Ld(g, 2, 1, 5)
        bad_const = TruncatedSeries.from_coefficients([2, 1])
        with pytest.raises(ValueError):
            verify_definition_Ld(bad_const, 2, 1, 1)
        poly_coeffs = TruncatedSeries.from_coefficients([P((1,)), P((0, 1))])
        with pytest.raises(ValueError):
            verify_definition_Ld(poly_coeffs, 2, 1, 1)
