"""congruence tests: known-true sweeps, gate enforcement, dual-route values."""

import functools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qlucas import catalog, congruence, intpoly, qcombinatorics
from qlucas.congruence import (
    CongruenceFailure,
    HypothesisViolated,
    apery_polynomial,
    verify_apery,
    verify_inter2_identity,
    verify_plucas_at_one,
    verify_ratio_congruence,
)
from qlucas.intpoly import IntPolynomial, cyclotomic, reduce_mod_cyclotomic
from qlucas.landau import check_landau
from qlucas.qcombinatorics import RatioSpec, iter_box, q_binomial
from oracles import congruent_mod_cyclotomic
from strategies import balanced_specs

P = IntPolynomial

CENTRAL = catalog.central_binomial_spec()
APERY = catalog.apery_spec()
INVERSE = catalog.inverse_central_spec()


class TestCongruentModCyclotomic:
    def test_frozen(self):
        assert congruent_mod_cyclotomic(P((0, 0, 1)), P((1,)), 2)  # q^2 == 1 mod q+1
        assert congruent_mod_cyclotomic(q_binomial(4, 2), P((2,)), 2)
        assert congruent_mod_cyclotomic(q_binomial(12, 6), P((6,)), 3)
        assert not congruent_mod_cyclotomic(P((1,)), P(()), 2)
        assert not congruent_mod_cyclotomic(P((1,)), P(()), 7)

    def test_b_one_compares_values_at_one(self):
        assert congruent_mod_cyclotomic(P((1, 2)), P((3,)), 1)
        assert not congruent_mod_cyclotomic(P((1, 2)), P((4,)), 1)

    @given(
        st.lists(st.integers(-9, 9), max_size=8),
        st.lists(st.integers(-9, 9), max_size=4),
        st.integers(1, 12),
    )
    def test_shift_by_modulus_multiples(self, a, k, m):
        pa, pk = P(a), P(k)
        assert congruent_mod_cyclotomic(pa + pk * cyclotomic(m), pa, m)


class TestVerifyRatioCongruence:
    def test_central_clean_sweep(self):
        rep = verify_ratio_congruence(CENTRAL, 6, (4,))
        assert rep.ok
        assert rep.checked == sum(b * 5 for b in range(1, 7))
        assert rep.subject == "ratio-congruence"

    def test_apery_clean_sweep(self):
        rep = verify_ratio_congruence(APERY, 4, (2, 2))
        assert rep.ok
        assert rep.checked == sum(b * b * 9 for b in range(1, 5))

    def test_takes_no_jobs(self):
        # every sweep runs in the calling process
        with pytest.raises(TypeError, match="jobs"):
            verify_ratio_congruence(CENTRAL, 5, (3,), jobs=2)

    def test_refuses_failing_spec(self):
        with pytest.raises(HypothesisViolated):
            verify_ratio_congruence(INVERSE, 4, (2,))

    def test_refuses_unbalanced_spec(self):
        with pytest.raises(HypothesisViolated):
            verify_ratio_congruence(RatioSpec(1, ((1,),), ()), 4, (2,))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            verify_ratio_congruence(CENTRAL, 4, (2, 2))
        with pytest.raises(ValueError):
            verify_ratio_congruence(CENTRAL, 0, (2,))


class TestPointMemo:
    @pytest.mark.parametrize(
        "sweep, exponent_box, at_one_box",
        [
            # moduli 1..4: points up to 4 * 3 - 1 per axis, q = 1 only at steps n
            (lambda: verify_ratio_congruence(APERY, 4, (2, 2)), (11, 11), (2, 2)),
            # primes 2, 3, 5: points up to 5 * 3 - 1, all of them at q = 1
            (lambda: verify_plucas_at_one(APERY, 5, (2, 2)), None, (14, 14)),
        ],
        ids=["ratio", "plucas"],
    )
    def test_sweep_computes_each_point_once(self, monkeypatch, sweep, exponent_box, at_one_box):
        calls = {"cyclotomic_exponents": [], "q_ratio_at_one": []}
        for name in calls:
            def counted(spec, n, exact=getattr(congruence, name), seen=calls[name]):
                seen.append(n)
                return exact(spec, n)

            monkeypatch.setattr(congruence, name, counted)
        assert sweep().ok
        expected = list(iter_box(exponent_box)) if exponent_box else []
        assert sorted(calls["cyclotomic_exponents"]) == expected
        assert sorted(calls["q_ratio_at_one"]) == list(iter_box(at_one_box))


class TestLucasCheck:
    def test_walk_splits_and_bases(self):
        # residue = coordinate sum, factor 1: every x off its offset mismatches.
        checked, base, bad = congruence.lucas_check((2, 1), 2, sum, lambda n: 1, lambda v: v)
        assert checked == 6
        assert base == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        assert list(base) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert bad == [((0, 0), (1, 0), (2, 0), 2, 0), ((0, 1), (1, 0), (2, 1), 3, 1)]

    def test_split_one_has_the_single_offset_zero(self):
        checked, base, bad = congruence.lucas_check((3,), 1, lambda x: 1, lambda n: 1, lambda v: v)
        assert (checked, base, bad) == (4, {(0,): 1}, [])

    def test_right_side_compared_as_computed_without_reduce(self):
        # Residue 1 everywhere and factor 4^n: equal modulo 3, but with
        # reduce omitted the right side 4^n is compared as it is.
        args = ((2,), 1, lambda x: 1, lambda n: 4 ** n[0])
        checked, base, bad = congruence.lucas_check(*args)
        assert (checked, base) == (3, {(0,): 1})
        assert bad == [((0,), (1,), (1,), 1, 4), ((0,), (2,), (2,), 1, 16)]
        assert congruence.lucas_check(*args, lambda v: v % 3) == (3, {(0,): 1}, [])


def off_by_one_at_two(monkeypatch):
    """Make the sweeps' q = 1 value wrong at the point (2,) only."""
    exact = congruence.q_ratio_at_one

    def ratio_at_one(spec, n):
        return exact(spec, n) + (n == (2,))

    monkeypatch.setattr(congruence, "q_ratio_at_one", ratio_at_one)


def failure_records(report):
    return [(f.b, f.a, f.n, f.lhs_residue.coeffs, f.rhs_residue.coeffs) for f in report.failures]


class TestForcedMismatches:
    """A wrong q = 1 value at one point: the sweeps report it in index order."""

    RATIO = [
        (1, (0,), (2,), (6,), (7,)),
        (2, (0,), (2,), (6,), (7,)),
        (3, (0,), (2,), (6,), (7,)),
        (3, (1,), (2,), (6, 6), (7, 7)),
    ]
    PLUCAS = [
        (2, (0,), (1,), (1,), ()),
        (2, (0,), (2,), (), (1,)),
        (3, (2,), (1,), (), (2,)),
        (3, (0,), (2,), (), (1,)),
        (3, (1,), (2,), (), (2,)),
        (3, (2,), (2,), (), (1,)),
        (5, (2,), (1,), (2,), (4,)),
        (5, (0,), (2,), (1,), (2,)),
        (5, (1,), (2,), (2,), (4,)),
        (5, (2,), (2,), (1,), (4,)),
    ]

    def test_ratio_sweep(self, monkeypatch):
        off_by_one_at_two(monkeypatch)
        report = verify_ratio_congruence(CENTRAL, 3, (2,))
        assert report.checked == (1 + 2 + 3) * 3
        assert failure_records(report) == self.RATIO

    def test_plucas_sweep(self, monkeypatch):
        off_by_one_at_two(monkeypatch)
        report = verify_plucas_at_one(CENTRAL, 5, (2,))
        assert report.checked == (2 + 3 + 5) * 3
        assert failure_records(report) == self.PLUCAS


class TestVerifyPlucasAtOne:
    def test_central_primes(self):
        rep = verify_plucas_at_one(CENTRAL, 7, (6,))
        assert rep.ok
        assert rep.checked == (2 + 3 + 5 + 7) * 7
        assert rep.ranges["p_max"] == 7

    def test_apery_primes(self):
        rep = verify_plucas_at_one(APERY, 3, (2, 2))
        assert rep.ok
        assert rep.checked == (4 + 9) * 9

    def test_refuses_failing_spec(self):
        with pytest.raises(HypothesisViolated):
            verify_plucas_at_one(INVERSE, 5, (2,))


class TestVerifyInter2:
    def test_frozen_instance(self):
        rep = verify_inter2_identity(CENTRAL, 3, (2,))
        assert rep.ok
        assert rep.checked == 3

    def test_sweeps(self):
        for b in range(1, 9):
            assert verify_inter2_identity(CENTRAL, b, (3,)).ok, b
        for b in (2, 3):
            assert verify_inter2_identity(APERY, b, (2, 2)).ok, b

    def test_needs_only_integrality(self):
        # criterion on the subdomain is irrelevant here; a spec with empty
        # subdomain passes
        spec = RatioSpec(1, ((1,),), ((1,),))
        assert verify_inter2_identity(spec, 4, (3,)).ok

    def test_refuses_non_integral(self):
        with pytest.raises(HypothesisViolated):
            verify_inter2_identity(INVERSE, 3, (2,))


@functools.cache
def gaussian_summand(family, n, k):
    """qbinom(n, k)^2 qbinom(n+k, k)^r, r = 1 for kind 'a' and 2 for kind 'b'."""
    mixed = q_binomial(n + k, k)
    return q_binomial(n, k) ** 2 * (mixed if family == "a" else mixed * mixed)


def gaussian_apery(family, t, n):
    """Independent oracle: sum_k q^(t k) times the summand at k."""
    total = P(())
    for k in range(n + 1):
        total = total + gaussian_summand(family, n, k).shift(t * k)
    return total


APERY_KEYS = [(family, t, n) for family in ("a", "b") for t in range(4) for n in range(17)]


@pytest.fixture(scope="module")
def apery_oracle():
    return {key: gaussian_apery(*key) for key in APERY_KEYS}


class TestApery:
    def test_matches_gaussian_binomial_sum(self, apery_oracle):
        for key in APERY_KEYS:
            assert apery_polynomial(*key) == apery_oracle[key], key

    def test_polynomial_frozen(self):
        assert apery_polynomial("a", 0, 0) == P((1,))
        assert apery_polynomial("b", 2, 0) == P((1,))
        assert apery_polynomial("a", 0, 1) == P((2, 1))
        assert apery_polynomial("a", 1, 1) == P((1, 1, 1))
        assert apery_polynomial("a", 2, 1) == P((1, 0, 1, 1))
        assert apery_polynomial("b", 0, 1) == P((2, 2, 1))
        assert apery_polynomial("b", 1, 1) == P((1, 1, 2, 1))

    def test_polynomial_at_one_matches_integer_route(self):
        for family in ("a", "b"):
            seq = catalog.apery_number_sequence(family, 12)
            for t in (0, 1, 2):
                for n in range(13):
                    assert apery_polynomial(family, t, n).evaluate(1) == seq[n]

    def test_clean_sweeps(self):
        rep = verify_apery("a", 1, 5, 12)
        assert rep.ok
        assert rep.checked == 65
        assert verify_apery("b", 0, 4, 10).ok
        assert verify_apery("a", 2, 3, 9).ok

    def test_cofactor_check_reports_in_index_order(self):
        seq = catalog.apery_number_sequence("b", 9)
        coeffs = [apery_polynomial("b", 1, n) for n in range(10)]
        coeffs[5] = coeffs[5] + 1
        report = congruence.CongruenceReport("test", {})
        residues = congruence.check_cofactor(
            lambda x: reduce_mod_cyclotomic(coeffs[x[0]], 2), len(coeffs), seq, 2, report
        )
        assert residues == [reduce_mod_cyclotomic(c, 2) for c in coeffs[:2]]
        assert report.checked == 10
        assert [(f.a, f.n) for f in report.failures] == [((1,), (2,))]

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_apery("c", 0, 4, 8)
        with pytest.raises(ValueError):
            apery_polynomial("a", -1, 2)
        with pytest.raises(ValueError):
            apery_polynomial("c", 0, 2)
        with pytest.raises(ValueError):
            verify_apery("a", 0, 0, 8)

    def test_cofactor_check_refuses_a_short_sequence(self):
        coeffs = [apery_polynomial("a", 0, n) for n in range(10)]
        seq = catalog.apery_number_sequence("a", 4)
        report = congruence.CongruenceReport("test", {})
        residue = lambda x: reduce_mod_cyclotomic(coeffs[x[0]], 2)
        with pytest.raises(ValueError, match=r"^g1 has 4 terms; 10 coefficients at b=2 need 5$"):
            congruence.check_cofactor(residue, 10, seq[:4], 2, report)
        assert report.checked == 0 and report.ok
        congruence.check_cofactor(residue, 9, seq, 2, report)
        assert report.checked == 9 and report.ok


@pytest.fixture
def cold_caches():
    """Empty the residue cache, which also holds the Apery sums, before and after a test."""

    def clear():
        qcombinatorics._residue_power_cache.clear()

    clear()
    yield clear
    clear()


def counting_reductions(monkeypatch) -> list:
    """Count every call of intpoly's reduction helper, under each module's name for it."""
    calls = []
    real = intpoly._reduce_cyclotomic

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    for module in (intpoly, qcombinatorics, congruence):
        monkeypatch.setattr(module, "_reduce_cyclotomic", counted, raising=False)
    return calls


class TestAperyResidueMemo:
    # The Apery sums and their residues live in the process-wide residue
    # cache, keyed (family, t, n) and (family, t, n, b), next to the
    # residues of the ratio sweeps.
    SWEEPS = [
        functools.partial(verify_apery, family, t, b_max, total)
        for family in ("a", "b")
        for t in (0, 2, 3)
        for b_max in (5, 2, 7)
        for total in (9, 14)
    ] + [functools.partial(verify_ratio_congruence, APERY, b_max, (1, 1)) for b_max in (4, 2)]

    def shuffled_sweeps(self):
        calls = list(self.SWEEPS)
        random.Random(23).shuffle(calls)
        return calls

    def test_interleaved_sweeps_match_cold_reports(self, cold_caches):
        calls = self.shuffled_sweeps()
        cold = []
        for call in calls:
            cold_caches()
            cold.append(call().to_json_dict())
        cold_caches()
        assert [call().to_json_dict() for call in calls] == cold
        assert [call().to_json_dict() for call in calls] == cold

    def test_repeat_at_equal_or_smaller_b_max_reduces_nothing(self, monkeypatch, cold_caches):
        first = verify_apery("b", 1, 6, 12).to_json_dict()
        calls = counting_reductions(monkeypatch)
        assert verify_apery("b", 1, 6, 12).to_json_dict() == first
        for b_max, total in ((3, 12), (6, 7), (1, 0)):
            assert verify_apery("b", 1, b_max, total).ok
        assert calls == []
        assert ("b", 1, 12, 6) in qcombinatorics._residue_power_cache
        # A larger b_max reduces only the new moduli, once per index.
        verify_apery("b", 1, 8, 12)
        assert sorted(calls) == [7] * 13 + [8] * 13

    def test_cache_emptied_mid_sweep_keeps_reports(self, monkeypatch, cold_caches):
        calls = self.shuffled_sweeps()
        warm = [call().to_json_dict() for call in calls]
        cold_caches()
        monkeypatch.setattr(qcombinatorics, "_RESIDUE_POWER_CACHE_MAX", 10)
        for call, want in zip(calls, warm):
            assert call().to_json_dict() == want
            assert len(qcombinatorics._residue_power_cache) <= 10
        # One sweep stores more residues than the cap, so the cache was emptied
        # in the middle of it.
        verify_apery("b", 1, 6, 12)
        assert ("b", 1, 0, 1) not in qcombinatorics._residue_power_cache

    def test_emptied_cache_starts_cold(self, monkeypatch, cold_caches):
        # The cache is the only memo of the sums: once emptied, a repeated
        # sweep builds every sum again, with as many ratio steps.
        want = gaussian_apery("b", 1, 10)
        steps = []
        real = qcombinatorics._ratio_step

        def counted(*args):
            steps.append(args[3])
            return real(*args)

        for module in (qcombinatorics, congruence):
            monkeypatch.setattr(module, "_ratio_step", counted, raising=False)
        first = verify_apery("b", 1, 4, 10).to_json_dict()
        cold = len(steps)
        assert cold > 0
        cold_caches()
        assert verify_apery("b", 1, 4, 10).to_json_dict() == first
        assert len(steps) == 2 * cold
        # and leaves the sums there, where apery_polynomial reads them
        assert apery_polynomial("b", 1, 10) == want
        assert len(steps) == 2 * cold


class TestPreconditions:
    UNBALANCED = RatioSpec(1, ((1,),), ())
    # Integral, but its step function is 0 somewhere on the subdomain.
    BELOW_ONE = RatioSpec(1, ((2,), (1,), (2,)), ((2,), (2,), (1,)))

    def test_refusals_name_the_hypothesis_in_order(self):
        sweeps = {
            "ratio congruence": lambda spec: verify_ratio_congruence(spec, 3, (1,)),
            "prime congruence": lambda spec: verify_plucas_at_one(spec, 3, (1,)),
            "scaled-point identity": lambda spec: verify_inter2_identity(spec, 3, (1,)),
        }
        reasons = [
            (self.UNBALANCED, "spec column sums differ (e=(1,), f=(0,))"),
            (INVERSE, "step function is negative somewhere"),
            (self.BELOW_ONE, "step function is below 1 on the distinguished subdomain"),
        ]
        for subject, sweep in sweeps.items():
            for spec, reason in reasons:
                if subject == "scaled-point identity" and spec is self.BELOW_ONE:
                    assert sweep(spec).ok
                    continue
                with pytest.raises(HypothesisViolated) as exc:
                    sweep(spec)
                assert str(exc.value) == f"{subject}: {reason}"

    def test_plucas_needs_a_prime(self):
        for p_max in (1, 0, -3):
            with pytest.raises(ValueError, match=r"^p_max must be >= 2$"):
                verify_plucas_at_one(self.UNBALANCED, p_max, (1,))
        with pytest.raises(ValueError, match=r"^n_box "):
            verify_plucas_at_one(CENTRAL, 1, (1, 1))

    def test_box_checked_before_hypotheses(self):
        for sweep in (
            lambda box: verify_ratio_congruence(self.UNBALANCED, 3, box),
            lambda box: verify_plucas_at_one(self.UNBALANCED, 3, box),
            lambda box: verify_inter2_identity(self.UNBALANCED, 3, box),
        ):
            for box in ((1, 2), (-1,)):
                with pytest.raises(ValueError, match=r"^n_box .* must be nonnegative integers of length 1$"):
                    sweep(box)


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(balanced_specs())
    @example(TestPreconditions.BELOW_ONE)
    @example(RatioSpec(2, ((2, 0), (1, 1), (2, 1)), ((2, 0), (1, 0), (2, 1), (0, 1))))
    @example(APERY)
    def test_both_engines_hold_or_both_refuse(self, spec):
        landau = check_landau(spec)
        assume(landau.integrality)
        d, box = spec.dim, (2,) * spec.dim
        if not landau.criterion_D:
            with pytest.raises(HypothesisViolated):
                verify_ratio_congruence(spec, 3, box)
            with pytest.raises(HypothesisViolated):
                verify_plucas_at_one(spec, 5, box)
            return
        ratio = verify_ratio_congruence(spec, 3, box)
        assert ratio.ok
        assert ratio.checked == (1 + 2**d + 3**d) * 3**d
        plucas = verify_plucas_at_one(spec, 5, box)
        assert plucas.ok
        assert plucas.checked == (2**d + 3**d + 5**d) * 3**d


class TestReportShape:
    def test_json(self):
        rep = verify_inter2_identity(CENTRAL, 2, (1,))
        data = rep.to_json_dict()
        assert data["subject"] == "inter2"
        assert data["ok"] is True
        assert data["checked"] == 2
        assert data["failures"] == []

    def test_failure_json(self):
        fail = CongruenceFailure(3, (1,), (2,), P((1, 1)), P((2,)))
        assert fail.to_json_dict() == {
            "b": 3,
            "a": [1],
            "n": [2],
            "lhs_residue": ["1", "1"],
            "rhs_residue": ["2"],
        }
        anon = CongruenceFailure(3, None, (2,), P(()), P((1,)))
        assert anon.to_json_dict()["a"] is None
