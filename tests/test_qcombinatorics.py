"""qcombinatorics tests: frozen small values, dual-route agreement, properties."""

import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qlucas import catalog, qcombinatorics
from qlucas.congruence import (
    apery_polynomial,
    verify_apery,
    verify_inter2_identity,
    verify_plucas_at_one,
    verify_ratio_congruence,
)
from qlucas.intpoly import ONE, IntPolynomial, NotDivisible, cyclotomic, reduce_mod_cyclotomic
from qlucas.landau import check_landau, enumerate_cells
from qlucas.qcombinatorics import (
    NegativeExponent,
    RatioSpec,
    _ratio_step,
    cyclotomic_exponents,
    exponent_residue,
    iter_box,
    multisum,
    q_binomial,
    q_ratio,
    q_ratio_at_one,
    q_ratio_box,
    q_ratio_cyclotomic,
    q_ratio_mod,
    ratio_degree,
)
from qlucas.relations import RelationCandidate, find_relations, verify_relation
from qlucas.series import TruncatedSeries, extract_cofactor, specialize, verify_definition_Ld
from oracles import (
    divide_monic,
    exponent_residue_unpooled,
    q_factorial,
    q_integer,
    ratio_step_unpaired,
)
from strategies import balanced_specs

P = IntPolynomial

CENTRAL = catalog.central_binomial_spec()
APERY = catalog.apery_spec()
INVERSE = catalog.inverse_central_spec()


class TestBasics:
    def test_q_integer(self):
        assert q_integer(0) == P(())
        assert q_integer(1) == P((1,))
        assert q_integer(3) == P((1, 1, 1))
        with pytest.raises(ValueError):
            q_integer(-1)

    def test_q_factorial_frozen(self):
        assert q_factorial(0) == P((1,))
        assert q_factorial(1) == P((1,))
        # [3]! = (1+q)(1+q+q^2)
        assert q_factorial(3) == P((1, 2, 2, 1))
        assert q_factorial(5).evaluate(1) == 120

    def test_q_binomial_frozen(self):
        assert q_binomial(2, 1) == P((1, 1))
        assert q_binomial(4, 2) == P((1, 1, 2, 1, 1))
        assert q_binomial(5, 0) == P((1,))
        assert q_binomial(3, 4) == P(())
        assert q_binomial(3, -1) == P(())
        # alternating sum vanishes for the central column at even height
        assert q_binomial(6, 3).evaluate(-1) == 0

    def test_q_binomial_against_factorials(self):
        for n in range(13):
            for k in range(n + 1):
                direct = divide_monic(q_factorial(n), q_factorial(k) * q_factorial(n - k))
                assert q_binomial(n, k) == direct, (n, k)

    def test_q_binomial_symmetry_and_positivity(self):
        for n in range(21):
            for k in range(n + 1):
                p = q_binomial(n, k)
                assert p == q_binomial(n, n - k)
                assert p.degree == k * (n - k)
                assert all(c > 0 for c in p.coeffs)
                assert p.coeffs == p.coeffs[::-1]  # palindromic

    def test_q_binomial_eval_at_one(self):
        import math

        for n in range(61):
            for k in range(n + 1):
                assert q_binomial(n, k).evaluate(1) == math.comb(n, k)

    @given(st.integers(1, 14), st.integers(0, 14))
    def test_q_binomial_pascal(self, n, k):
        # Gaussian Pascal rule, an independent route to the same values.
        lhs = q_binomial(n, k)
        rhs = q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k) if k >= 1 else q_binomial(n - 1, 0)
        assert lhs == rhs


class TestRatioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RatioSpec(0, (), ())
        with pytest.raises(ValueError):
            RatioSpec(2, ((1,),), ())
        with pytest.raises(ValueError):
            RatioSpec(1, ((-1,),), ())

    def test_json_round_trip(self):
        data = APERY.to_json_dict()
        assert data == {"dim": 2, "e": [[2, 1], [1, 1]], "f": [[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]]}
        assert RatioSpec.from_json_dict(data) == APERY

    def test_json_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RatioSpec.from_json_dict({"dim": 1, "e": []})
        with pytest.raises(ValueError):
            RatioSpec.from_json_dict({"dim": 1, "e": [], "f": [], "extra": 1})
        with pytest.raises(ValueError):
            RatioSpec.from_json_dict([1, 2])

    def test_balance(self):
        assert CENTRAL.balanced
        assert APERY.balanced
        assert APERY.total_e == (3, 2)
        assert not RatioSpec(1, ((1,),), ()).balanced

    def test_distinct_nonzero_vectors(self):
        assert APERY.distinct_nonzero_vectors() == ((0, 1), (1, 0), (1, 1), (2, 1))
        assert RatioSpec(1, ((0,),), ((0,),)).distinct_nonzero_vectors() == ()


class TestQRatio:
    def test_central_is_binomial(self):
        for n in range(9):
            assert q_ratio(CENTRAL, (n,)) == q_binomial(2 * n, n), n

    def test_frozen_values(self):
        assert q_ratio(APERY, (0, 0)) == P((1,))
        # (2+1)! (1+1)! / (1 1 1 1 1) at n=(1,1): [3]! [2]! = (1+2q+2q^2+q^3)(1+q)
        assert q_ratio(APERY, (1, 1)) == P((1, 3, 4, 3, 1))

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            q_ratio(INVERSE, (1,))

    def test_empty_denominator_is_factorial(self):
        spec = RatioSpec(1, ((1,),), ())
        for n in range(7):
            assert q_ratio(spec, (n,)) == q_factorial(n)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            q_ratio(CENTRAL, (1, 2))
        with pytest.raises(ValueError):
            q_ratio(CENTRAL, (-1,))


def step_outcome(step, *args):
    """The step's polynomial, or NotDivisible if it raised that."""
    try:
        return step(*args)
    except NotDivisible:
        return NotDivisible


# One-variable specs with no balance condition, so that some steps fail.
ONE_DIM_SPECS = st.builds(
    lambda e, f: RatioSpec(1, tuple(e), tuple(f)),
    st.lists(st.tuples(st.integers(1, 3)), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(1, 3)), max_size=3),
)


class TestRatioStepPairing:
    @given(st.one_of(balanced_specs(), ONE_DIM_SPECS), st.lists(st.integers(0, 6), min_size=4, max_size=4))
    @example(RatioSpec(1, ((2,),), ((1,), (1,))), [3, 0, 9, 0])
    @example(RatioSpec(1, ((2,),), ((1,),)), [0, 0, 7, 0])
    @example(RatioSpec(1, ((1,), (1,)), ((2,),)), [1, 0, 4, 0])
    @example(RatioSpec(1, ((3,),), ((1,), (1,))), [2, 0, 6, 0])
    def test_matches_unpaired_oracle(self, spec, coords):
        src, dst = tuple(coords[: spec.dim]), tuple(coords[2 : 2 + spec.dim])
        for a, b in ((src, dst), (dst, src)):
            starts = [ONE]
            exact = step_outcome(ratio_step_unpaired, spec, ONE, (0,) * spec.dim, a)
            if exact is not NotDivisible:
                starts.append(exact)
            for start in starts:
                expected = step_outcome(ratio_step_unpaired, spec, start, a, b)
                assert step_outcome(_ratio_step, spec, start, a, b) == expected

    def test_central3_pass_counts(self, monkeypatch):
        # Over 0 < k <= 20, 3 gains of (1 - q^2k) each; over 0 < k <= 20, 3
        # net losses of (1 - q^k) each. The losses at k = 11..20 pair with the
        # gains at 2k = 22..40; the odd gains 21..39 and the losses 1..10 remain.
        calls = Counter()
        for name in ("mul_one_minus_qk", "_mul_one_plus_qk", "div_one_minus_qk_exact"):
            kernel = getattr(qcombinatorics, name)

            def counted(*args, name=name, kernel=kernel):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(qcombinatorics, name, counted)
        spec = catalog.builtin_spec("central:3")
        value = q_ratio(spec, (20,))
        assert calls == {"mul_one_minus_qk": 30, "_mul_one_plus_qk": 30, "div_one_minus_qk_exact": 30}
        assert value == q_ratio_cyclotomic(spec, (20,))


class TestQRatioAtOne:
    def test_values(self):
        assert q_ratio_at_one(CENTRAL, (3,)) == 20
        assert q_ratio_at_one(APERY, (1, 1)) == 12
        assert q_ratio_at_one(APERY, (0, 0)) == 1

    def test_matches_eval_at_one(self):
        for n1 in range(4):
            for n2 in range(4):
                assert q_ratio_at_one(APERY, (n1, n2)) == q_ratio(APERY, (n1, n2)).evaluate(1)

    def test_non_integer(self):
        with pytest.raises(NotDivisible):
            q_ratio_at_one(INVERSE, (1,))


class TestCyclotomicRoute:
    def test_central_n2_exponents(self):
        # floor(2/2) - 2*floor(1/2) = 1 - 0... careful: vectors are (2) and (1,1):
        # b=2: floor(4/2) - 2*floor(2/2) = 2 - 2 = 0; b=3 and b=4 give 1.
        assert cyclotomic_exponents(CENTRAL, (2,)) == {3: 1, 4: 1}
        prod = cyclotomic(3) * cyclotomic(4)
        assert prod == q_binomial(4, 2)
        assert q_ratio_cyclotomic(CENTRAL, (2,)) == q_binomial(4, 2)

    def test_matches_direct_route(self):
        for n in range(13):
            assert q_ratio_cyclotomic(CENTRAL, (n,)) == q_ratio(CENTRAL, (n,))
        for n1 in range(5):
            for n2 in range(5):
                assert q_ratio_cyclotomic(APERY, (n1, n2)) == q_ratio(APERY, (n1, n2))

    def test_negative_exponent_witness(self):
        with pytest.raises(NegativeExponent) as exc:
            q_ratio_cyclotomic(INVERSE, (1,))
        assert exc.value.modulus == 2
        assert exc.value.exponent == -1

    def test_unbalanced_factorial(self):
        spec = RatioSpec(1, ((1,),), ())
        for n in range(2, 9):
            assert q_ratio_cyclotomic(spec, (n,)) == q_factorial(n)


class TestRatioDegree:
    def test_matches_actual_degree(self):
        for n in range(1, 8):
            assert ratio_degree(CENTRAL, (n,)) == q_ratio(CENTRAL, (n,)).degree == n * n
        for pt in [(1, 0), (2, 3), (4, 4)]:
            assert ratio_degree(APERY, pt) == q_ratio(APERY, pt).degree

    def test_negative_for_inverse(self):
        assert ratio_degree(INVERSE, (1,)) < 0


class TestQRatioMod:
    def test_matches_reduction_below_threshold(self):
        # deg = n^2 for CENTRAL: 1..25, below the old residue-route cutoff of 64.
        for b in range(1, 9):
            for n in (1, 4, 5):
                direct = q_ratio(CENTRAL, (n,))
                product = q_ratio_cyclotomic(CENTRAL, (n,))
                fast = q_ratio_mod(CENTRAL, (n,), b)
                assert fast == reduce_mod_cyclotomic(direct, b), (n, b)
                assert fast == reduce_mod_cyclotomic(product, b), (n, b)

    def test_residue_path_agrees(self):
        for b in (2, 3, 5, 7, 12):
            for n in (4, 9, 16):
                fast = q_ratio_mod(CENTRAL, (n,), b)
                assert fast == reduce_mod_cyclotomic(q_ratio(CENTRAL, (n,)), b), (b, n)
                assert fast == reduce_mod_cyclotomic(q_ratio_cyclotomic(CENTRAL, (n,)), b), (b, n)
            for pt in [(1, 1), (2, 1), (3, 3), (5, 2), (6, 6)]:
                fast = q_ratio_mod(APERY, pt, b)
                assert fast == reduce_mod_cyclotomic(q_ratio(APERY, pt), b), (b, pt)

    def test_default_dispatch_straddles_threshold(self):
        # One route serves degrees on both sides of the old cutoff of 64:
        # deg = n^2 is 25, 64 below or at it, 81..1600 above it.
        for n in (5, 8, 9, 10, 12, 40):
            direct = q_ratio(CENTRAL, (n,))
            product = q_ratio_cyclotomic(CENTRAL, (n,))
            for b in (1, 2, 6, 7, 8, 12):
                fast = q_ratio_mod(CENTRAL, (n,), b)
                assert fast == reduce_mod_cyclotomic(direct, b), (n, b)
                assert fast == reduce_mod_cyclotomic(product, b), (n, b)

    def test_exponent_residue(self):
        exponents = cyclotomic_exponents(CENTRAL, (6,))
        for b in range(1, 14):
            expected = reduce_mod_cyclotomic(q_binomial(12, 6), b)
            assert exponent_residue(exponents, b) == expected, b
        assert exponent_residue({}, 5) == P((1,))
        assert exponent_residue({5: 2}, 5) == P(())

    def test_b_one_is_integer_value(self):
        assert q_ratio_mod(CENTRAL, (6,), 1) == P((924,))

    def test_non_polynomial_raises_at_every_modulus(self):
        # At n = 2 the ratio is [4]_q! / [2]_q!^3 = [3]_q (1 + q^2) / [2]_q:
        # the integer 3 at q = 1, but not a polynomial.
        spec = RatioSpec(1, ((2,),), ((1,), (1,), (1,)))
        assert q_ratio_at_one(spec, (2,)) == 3
        with pytest.raises(NotDivisible):
            q_ratio(spec, (2,))
        for b in range(1, 6):
            with pytest.raises(NegativeExponent):
                q_ratio_mod(spec, (2,), b)
            with pytest.raises(NegativeExponent):
                q_ratio_mod(INVERSE, (1,), b)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            q_ratio_mod(CENTRAL, (2,), 0)


class TestResiduePowerCache:
    def test_bound_holds_and_eviction_keeps_results(self):
        cache = qcombinatorics._residue_power_cache
        bound = qcombinatorics._RESIDUE_POWER_CACHE_MAX
        points = [(n, b) for n in ((4, 3), (6, 5)) for b in range(2, 13)]
        expected = {(n, b): reduce_mod_cyclotomic(q_ratio(APERY, n), b) for n, b in points}
        try:
            # A full cache is emptied by the next miss, never by a hit.
            cache.clear()
            cache.update(((0, i, 0), P((i,))) for i in range(bound))
            for n, b in points:
                assert q_ratio_mod(APERY, n, b) == expected[n, b]
                assert len(cache) <= bound
            assert (0, 0, 0) not in cache
            cache.update(((0, i, 0), P((i,))) for i in range(bound - len(cache)))
            assert len(cache) == bound
            for n, b in points:
                assert q_ratio_mod(APERY, n, b) == expected[n, b]
            assert len(cache) == bound
        finally:
            cache.clear()


class TestWholeResidueMemo:
    # The residue of a whole exponent vector is memoized next to the base
    # residues and powers; the oracle is the full cyclotomic product, reduced.
    @given(
        balanced_specs(),
        st.lists(st.integers(0, 6), min_size=2, max_size=2),
        st.integers(1, 12),
        st.integers(1, 6),
    )
    def test_matches_oracle_cold_warm_and_after_overflow(self, spec, coords, b, cap):
        n = tuple(coords[: spec.dim])
        try:
            expected = {m: reduce_mod_cyclotomic(q_ratio_cyclotomic(spec, n), m) for m in range(1, b + 1)}
        except NegativeExponent:
            assume(False)
        cache = qcombinatorics._residue_power_cache
        try:
            cache.clear()
            assert q_ratio_mod(spec, n, b) == expected[b]
            assert q_ratio_mod(spec, n, b) == expected[b]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qcombinatorics, "_RESIDUE_POWER_CACHE_MAX", cap)
                cache.clear()
                for _ in range(2):
                    for m in range(1, b + 1):
                        assert q_ratio_mod(spec, n, m) == expected[m], m
                        assert len(cache) <= cap
        finally:
            cache.clear()

    @given(balanced_specs(), st.lists(st.integers(0, 6), min_size=2, max_size=2), st.integers(1, 20), st.data())
    def test_item_order_does_not_change_the_residue(self, spec, coords, b, data):
        try:
            exponents = cyclotomic_exponents(spec, coords[: spec.dim])
        except NegativeExponent:
            assume(False)
        shuffled = dict(data.draw(st.permutations(list(exponents.items()))))
        expected = exponent_residue_unpooled(exponents, b)
        cache = qcombinatorics._residue_power_cache
        try:
            cache.clear()
            assert exponent_residue(exponents, b) == expected
            assert exponent_residue(shuffled, b) == expected
            assert exponent_residue(exponents, b) == expected
        finally:
            cache.clear()


class TestPooledResidue:
    def test_shared_base_residue_is_pooled(self):
        # At (3, 3) the Apery exponents are {2: 2, 4: 3, 5: 2, 6: 2, 7: 1, 8: 1, 9: 1}.
        # Modulo cyclotomic(3), c = 2, 5 and 8 all leave 1 + q, so one power
        # (1 + q)^5 stands for their three factors.
        exponents = cyclotomic_exponents(APERY, (3, 3))
        assert {c: exponents[c] for c in (2, 5, 8)} == {2: 2, 5: 2, 8: 1}
        for c in (2, 5, 8):
            assert reduce_mod_cyclotomic(cyclotomic(c), 3) == P((1, 1))
        cache = qcombinatorics._residue_power_cache
        try:
            cache.clear()
            residue = exponent_residue(exponents, 3)
            assert ((1, 1), 5, 3) in cache
            assert not any(k[0] == (1, 1) and k[1] != 5 for k in cache if len(k) == 3)
        finally:
            cache.clear()
        assert residue == exponent_residue_unpooled(exponents, 3)
        assert residue == reduce_mod_cyclotomic(q_ratio(APERY, (3, 3)), 3)

    @given(balanced_specs(), st.lists(st.integers(0, 6), min_size=2, max_size=2), st.integers(1, 30))
    def test_matches_unpooled_oracle(self, spec, coords, b):
        try:
            exponents = cyclotomic_exponents(spec, coords[: spec.dim])
        except NegativeExponent:
            assume(False)
        assert exponent_residue(exponents, b) == exponent_residue_unpooled(exponents, b)


class TestBenchClearCaches:
    def test_empties_residue_power_cache(self, monkeypatch):
        # bench/run.py starts every pass with clear_caches(); it must find the
        # memo of the residue route by name and empty all of it.
        path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        module_spec = importlib.util.spec_from_file_location("bench_run", path)
        bench_run = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(bench_run)
        cache = qcombinatorics._residue_power_cache
        for b in range(2, 9):
            q_ratio_mod(APERY, (3, 3), b)
        assert any(len(k) == 2 for k in cache) and any(len(k) == 3 for k in cache)
        bench_run.clear_caches()
        assert cache == {}


class TestRouteProperties:
    @given(balanced_specs(), st.lists(st.integers(0, 6), min_size=2, max_size=2), st.integers(1, 12))
    def test_three_routes_agree_or_all_raise(self, spec, coords, b):
        n = tuple(coords[: spec.dim])
        try:
            direct = q_ratio(spec, n)
        except NotDivisible:
            with pytest.raises(NegativeExponent):
                q_ratio_cyclotomic(spec, n)
            with pytest.raises(NegativeExponent):
                q_ratio_mod(spec, n, b)
            return
        residue = q_ratio_mod(spec, n, b)
        assert residue == reduce_mod_cyclotomic(direct, b)
        assert residue == reduce_mod_cyclotomic(q_ratio_cyclotomic(spec, n), b)

    @given(balanced_specs(), st.lists(st.integers(0, 6), min_size=4, max_size=4))
    def test_ratio_step_agrees_with_cyclotomic_route(self, spec, coords):
        src, dst = tuple(coords[: spec.dim]), tuple(coords[2 : 2 + spec.dim])
        try:
            start = q_ratio(spec, src)
        except NotDivisible:
            assume(False)
        try:
            expected = q_ratio_cyclotomic(spec, dst)
        except NegativeExponent:
            with pytest.raises(NotDivisible):
                _ratio_step(spec, start, src, dst)
            return
        assert _ratio_step(spec, start, src, dst) == expected


SERIES_1D = TruncatedSeries.from_coefficients([1, 2, 3, 4])
GEOMETRIC = [catalog.geometric_sequence(30)]
# 1 - y + x y annihilates y = 1 / (1 - x)
GEOMETRIC_RELATION = RelationCandidate((((0, 0), 1), ((0, 1), -1), ((1, 1), 1)), 30)

# Every public call that takes a lattice point, box or exponent vector. A bool
# passes isinstance(c, int), so each must refuse it explicitly.
LATTICE_ENTRY_POINTS = {
    "q_ratio": lambda v: q_ratio(CENTRAL, v),
    "q_ratio_mod": lambda v: q_ratio_mod(CENTRAL, v, 3),
    "q_ratio_at_one": lambda v: q_ratio_at_one(CENTRAL, v),
    "q_ratio_box": lambda v: q_ratio_box(CENTRAL, v),
    "specialize-t": lambda v: specialize(SERIES_1D, v, (1,), 3),
    "specialize-m": lambda v: specialize(SERIES_1D, (0,), v, 3),
    "multisum-t": lambda v: multisum(CENTRAL, v, (1,), 3),
    "multisum-m": lambda v: multisum(CENTRAL, (0,), v, 3),
    "verify_ratio_congruence": lambda v: verify_ratio_congruence(CENTRAL, 2, v),
    "verify_plucas_at_one": lambda v: verify_plucas_at_one(CENTRAL, 2, v),
    "verify_inter2_identity": lambda v: verify_inter2_identity(CENTRAL, 2, v),
}


@pytest.mark.parametrize("bad", [(True,), (1.5,)], ids=["bool", "float"])
@pytest.mark.parametrize("call", LATTICE_ENTRY_POINTS.values(), ids=LATTICE_ENTRY_POINTS)
def test_lattice_inputs_refuse_bools_and_non_integers(call, bad):
    with pytest.raises(ValueError, match="must be nonnegative integers of length 1"):
        call(bad)


# Every public count argument that is not a lattice point, keyed by the call
# and the argument's name; the other arguments are valid.
COUNT_ARGUMENTS = {
    "specialize-order": lambda v: specialize(SERIES_1D, (0,), (1,), v),
    "multisum-order": lambda v: multisum(CENTRAL, (0,), (1,), v),
    "extract_cofactor-b": lambda v: extract_cofactor(SERIES_1D, [1, 1, 1, 1], v, 2),
    "extract_cofactor-order": lambda v: extract_cofactor(SERIES_1D, [1, 1, 1, 1], 2, v),
    "verify_definition_Ld-p": lambda v: verify_definition_Ld(SERIES_1D, v, 1, 2),
    "verify_definition_Ld-k": lambda v: verify_definition_Ld(SERIES_1D, 2, v, 2),
    "verify_definition_Ld-order": lambda v: verify_definition_Ld(SERIES_1D, 2, 1, v),
    "verify_ratio_congruence-b_max": lambda v: verify_ratio_congruence(CENTRAL, v, (2,)),
    "verify_plucas_at_one-p_max": lambda v: verify_plucas_at_one(CENTRAL, v, (2,)),
    "verify_inter2_identity-b": lambda v: verify_inter2_identity(CENTRAL, v, (2,)),
    # t = 1 is swept first: the residue memo must not answer for True
    "verify_apery-t": lambda v: (verify_apery("a", 1, 3, 3), verify_apery("a", v, 3, 3)),
    "verify_apery-b_max": lambda v: verify_apery("a", 0, v, 3),
    "verify_apery-total_max": lambda v: verify_apery("a", 0, 2, v),
    "check_landau-budget": lambda v: check_landau(CENTRAL, budget=v),
    "enumerate_cells-budget": lambda v: enumerate_cells(CENTRAL, budget=v),
    "q_ratio_mod-b": lambda v: q_ratio_mod(CENTRAL, (2,), v),
    "apery_polynomial-t": lambda v: apery_polynomial("a", v, 2),
    # n = 1 is cached first: the memo must not answer for True
    "apery_polynomial-n": lambda v: (apery_polynomial("a", 0, 1), apery_polynomial("a", 0, v)),
    "find_relations-dx": lambda v: find_relations(GEOMETRIC, v, 1, 20),
    "find_relations-dy": lambda v: find_relations(GEOMETRIC, 1, v, 20),
    "find_relations-order": lambda v: find_relations(GEOMETRIC, 1, 1, v),
    "find_relations-margin": lambda v: find_relations(GEOMETRIC, 1, 1, 20, v),
    "verify_relation-order": lambda v: verify_relation(GEOMETRIC_RELATION, GEOMETRIC, v),
    "q_binomial-n": lambda v: q_binomial(v, 1),
    "q_binomial-k": lambda v: q_binomial(4, v),
    "RatioSpec-dim": lambda v: RatioSpec(v, ((2,),), ((1,), (1,))),
    "TruncatedSeries-num_vars": lambda v: TruncatedSeries(v, (1,), {}),
    "central_binomial_spec-r": lambda v: catalog.central_binomial_spec(v),
    "binomial_spec-r": lambda v: catalog.binomial_spec(v),
    "central_power_sequence-r": lambda v: catalog.central_power_sequence(v, 2),
    "central_power_sequence-order": lambda v: catalog.central_power_sequence(1, v),
    "gaussian_central_sequence-r": lambda v: catalog.gaussian_central_sequence(v, 2, 2),
    "gaussian_central_sequence-order": lambda v: catalog.gaussian_central_sequence(1, v, 2),
    "apery_number_sequence-order": lambda v: catalog.apery_number_sequence("a", v),
    "factorial_sequence-order": lambda v: catalog.factorial_sequence(v),
    "geometric_sequence-order": lambda v: catalog.geometric_sequence(v),
    "builtin_sequence-order": lambda v: catalog.builtin_sequence("g1", v),
}


@pytest.mark.parametrize("bad", [True, 1.5], ids=["bool", "float"])
@pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
def test_counts_refuse_bools_and_non_integers(entry, bad):
    name = entry.split("-")[1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        COUNT_ARGUMENTS[entry](bad)


# The lowest value of each bounded count in COUNT_ARGUMENTS.
LOWER_BOUNDS = {
    "specialize-order": 0,
    "multisum-order": 0,
    "extract_cofactor-b": 1,
    "extract_cofactor-order": 0,
    "verify_definition_Ld-k": 1,
    "verify_definition_Ld-order": 0,
    "verify_ratio_congruence-b_max": 1,
    "verify_plucas_at_one-p_max": 2,
    "verify_inter2_identity-b": 1,
    "verify_apery-t": 0,
    "verify_apery-b_max": 1,
    "verify_apery-total_max": 0,
    "check_landau-budget": 1,
    "enumerate_cells-budget": 1,
    "q_ratio_mod-b": 1,
    "apery_polynomial-t": 0,
    "apery_polynomial-n": 0,
    "find_relations-dx": 0,
    "find_relations-dy": 0,
    "find_relations-order": 0,
    "find_relations-margin": 0,
    "verify_relation-order": 0,
    "q_binomial-n": 0,
    "RatioSpec-dim": 1,
    "TruncatedSeries-num_vars": 1,
    "central_binomial_spec-r": 1,
    "binomial_spec-r": 1,
    "central_power_sequence-r": 1,
    "central_power_sequence-order": 0,
    "gaussian_central_sequence-r": 1,
    "gaussian_central_sequence-order": 0,
    "apery_number_sequence-order": 0,
    "factorial_sequence-order": 0,
    "geometric_sequence-order": 0,
    "builtin_sequence-order": 0,
}


@pytest.mark.parametrize("entry", LOWER_BOUNDS)
def test_counts_refuse_values_below_their_bound(entry):
    name, low = entry.split("-")[1], LOWER_BOUNDS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be >= {low}$"):
        COUNT_ARGUMENTS[entry](low - 1)


class TestQRatioBox:
    def test_matches_pointwise(self):
        box = q_ratio_box(APERY, (3, 3))
        assert len(box) == 16
        for pt, val in box.items():
            assert val == q_ratio(APERY, pt), pt
        line = q_ratio_box(CENTRAL, (6,))
        for n in range(7):
            assert line[(n,)] == q_binomial(2 * n, n)

    def test_matches_pointwise_in_three_dimensions(self):
        # A trinomial times a binomial: the walk steps along all three axes
        # and carries the value of (n_0, 0, 0) and (n_0, n_1, 0) across rows.
        spec = RatioSpec(
            3, ((1, 1, 1), (1, 1, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0))
        )
        box = q_ratio_box(spec, (2, 3, 2))
        assert list(box) == list(iter_box((2, 3, 2)))
        for pt, val in box.items():
            assert val == q_ratio(spec, pt), pt

    def test_failure_propagates(self):
        with pytest.raises(NotDivisible):
            q_ratio_box(INVERSE, (2,))

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            q_ratio_box(APERY, (3,))


class TestCatalog:
    def test_builtin_specs(self):
        assert catalog.builtin_spec("central") == CENTRAL
        assert catalog.builtin_spec("central:3") == RatioSpec(1, ((2,),) * 3, ((1,),) * 6)
        assert catalog.builtin_spec("apery") == APERY
        assert catalog.builtin_spec("inverse-central") == INVERSE
        assert catalog.builtin_spec("binom:2") == RatioSpec(
            2, ((1, 1), (1, 1)), ((1, 0), (1, 0), (0, 1), (0, 1))
        )
        with pytest.raises(ValueError):
            catalog.builtin_spec("nope")
        with pytest.raises(ValueError):
            catalog.builtin_spec("apery:2")
        with pytest.raises(ValueError):
            catalog.builtin_spec("central:x")

    def test_sequences(self):
        assert catalog.central_power_sequence(1, 3) == [1, 2, 6, 20]
        assert catalog.apery_number_sequence("a", 4) == [1, 3, 19, 147, 1251]
        assert catalog.apery_number_sequence("b", 3) == [1, 5, 73, 1445]
        assert catalog.factorial_sequence(4) == [1, 1, 2, 6, 24]
        assert catalog.geometric_sequence(2) == [1, 1, 1]
        half = Fraction(1, 2)
        f1 = catalog.gaussian_central_sequence(1, 2, half)
        assert f1[0] == 1 and f1[1] == Fraction(3, 2)
        assert catalog.gaussian_central_sequence(2, 5, 1) == catalog.central_power_sequence(2, 5)

    @pytest.mark.parametrize("qval", [2, 1, -1, 0, Fraction(1, 2), Fraction(-3, 2), Fraction(1), Fraction(0)])
    def test_gaussian_central_sequence_matches_evaluation(self, qval):
        # the integer q-Pascal recurrence against [2n, n]_q built in full and evaluated
        for r in (1, 3):
            got = catalog.gaussian_central_sequence(r, 12, qval)
            want = [q_binomial(2 * n, n).evaluate(qval) ** r for n in range(13)]
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]

    def test_builtin_sequence_names(self):
        assert catalog.builtin_sequence("g2", 2) == [1, 4, 36]
        assert catalog.builtin_sequence("apery-a", 2) == [1, 3, 19]
        assert catalog.builtin_sequence("f1", 1, Fraction(1, 2)) == [1, Fraction(3, 2)]
        with pytest.raises(ValueError):
            catalog.builtin_sequence("g0", 3)
        with pytest.raises(ValueError):
            catalog.builtin_sequence("h1", 3)
