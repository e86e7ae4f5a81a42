"""congruence tests: known-true sweeps, gate enforcement, dual-route values."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qlucas import catalog, congruence
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
from qlucas.qcombinatorics import RatioSpec, iter_box, q_binomial, q_ratio, q_ratio_mod
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

    def test_parallel_matches_serial(self):
        serial = verify_ratio_congruence(CENTRAL, 5, (3,), jobs=1)
        parallel = verify_ratio_congruence(CENTRAL, 5, (3,), jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

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
    def test_matches_polynomial_routes(self):
        memo = congruence._PointMemo(APERY)
        for _ in range(2):  # the second round reads the memo
            for n in iter_box((4, 4)):
                assert memo.ratio_at_one(n) == q_ratio(APERY, n).eval_at_one(), n
                for b in (1, 2, 3, 6):
                    assert memo.residue(n, b) == q_ratio_mod(APERY, n, b), (n, b)
        assert len(memo.at_one) == len(memo.exponents) == 25


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the worker pool by an in-process one; return its max_workers values."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(congruence, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestWorkerPool:
    def test_parallel_apery_matches_serial(self):
        serial = verify_ratio_congruence(APERY, 5, (2, 2), jobs=1)
        parallel = verify_ratio_congruence(APERY, 5, (2, 2), jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_pool_clamped_to_tasks_and_cpus(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(congruence.os, "cpu_count", lambda: 4)
        verify_ratio_congruence(CENTRAL, 3, (2,), jobs=64)  # 3 moduli
        verify_ratio_congruence(CENTRAL, 9, (2,), jobs=64)  # 4 CPUs
        verify_ratio_congruence(CENTRAL, 9, (2,), jobs=2)
        verify_plucas_at_one(CENTRAL, 5, (2,), jobs=64)  # primes 2, 3, 5
        verify_plucas_at_one(CENTRAL, 2, (2,), jobs=64)  # one prime: serial
        verify_ratio_congruence(CENTRAL, 1, (2,), jobs=64)  # one modulus: serial
        monkeypatch.setattr(congruence.os, "cpu_count", lambda: None)
        verify_ratio_congruence(CENTRAL, 9, (2,), jobs=64)  # unknown CPUs: serial
        assert pool_sizes == [3, 4, 2, 3]

    def test_rejects_fewer_than_one_job(self, pool_sizes):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs"):
                verify_ratio_congruence(CENTRAL, 3, (2,), jobs=jobs)
            with pytest.raises(ValueError, match="jobs"):
                verify_plucas_at_one(CENTRAL, 5, (2,), jobs=jobs)
        assert pool_sizes == []

    def test_interleaved_failures_keep_serial_order(self, monkeypatch, pool_sizes):
        # Workers take every k-th modulus; the merged failures must still be
        # ordered as the serial sweep orders them.
        def sweep(spec, moduli, n_box):
            return len(moduli), [CongruenceFailure(b, None, n_box, P((b,)), P(())) for b in moduli]

        monkeypatch.setattr(congruence.os, "cpu_count", lambda: 3)
        checked, failures = congruence._run_sweep(sweep, CENTRAL, list(range(1, 8)), (0,), 3)
        assert pool_sizes == [3]
        assert checked == 7
        assert [f.b for f in failures] == list(range(1, 8))


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


def off_by_one_at_two(monkeypatch):
    """Make the memo's q = 1 value wrong at the point (2,) only."""
    exact = congruence._PointMemo.ratio_at_one

    def ratio_at_one(self, n):
        return exact(self, n) + (n == (2,))

    monkeypatch.setattr(congruence._PointMemo, "ratio_at_one", ratio_at_one)


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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ratio_sweep(self, monkeypatch, pool_sizes, jobs):
        off_by_one_at_two(monkeypatch)
        report = verify_ratio_congruence(CENTRAL, 3, (2,), jobs=jobs)
        assert report.checked == (1 + 2 + 3) * 3
        assert failure_records(report) == self.RATIO
        assert pool_sizes == ([2] if jobs == 2 else [])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_plucas_sweep(self, monkeypatch, pool_sizes, jobs):
        off_by_one_at_two(monkeypatch)
        report = verify_plucas_at_one(CENTRAL, 5, (2,), jobs=jobs)
        assert report.checked == (2 + 3 + 5) * 3
        assert failure_records(report) == self.PLUCAS
        assert pool_sizes == ([2] if jobs == 2 else [])


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

    def test_parallel_matches_serial(self):
        serial = verify_plucas_at_one(CENTRAL, 11, (4,), jobs=1)
        parallel = verify_plucas_at_one(CENTRAL, 11, (4,), jobs=3)
        assert serial.to_json_dict() == parallel.to_json_dict()

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


def gaussian_apery(family, t, n):
    """Independent oracle: sum_k q^(t k) qbinom(n, k)^2 qbinom(n+k, k)^r,
    r = 1 for kind 'a' and 2 for kind 'b'."""
    total = P(())
    for k in range(n + 1):
        mixed = q_binomial(n + k, k)
        term = q_binomial(n, k) ** 2 * (mixed if family == "a" else mixed * mixed)
        total = total + term.shift(t * k)
    return total


class TestApery:
    def test_matches_gaussian_binomial_sum(self):
        for family in ("a", "b"):
            for t in range(4):
                for n in range(17):
                    assert apery_polynomial(family, t, n) == gaussian_apery(family, t, n), (family, t, n)

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
                    assert apery_polynomial(family, t, n).eval_at_one() == seq[n]

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
        residues = congruence.check_cofactor(coeffs, seq, 2, report)
        assert residues == [reduce_mod_cyclotomic(c, 2) for c in coeffs[:2]]
        assert report.checked == 10
        assert [(f.a, f.n) for f in report.failures] == [((1,), (2,))]

    def test_memo_bound_holds_and_eviction_keeps_results(self):
        apery_polynomial.cache_clear()
        keys = [(t, n) for t in range(40) for n in range(15)]
        first = {key: apery_polynomial("a", *key) for key in keys}
        info = apery_polynomial.cache_info()
        assert info.maxsize == 512 and info.currsize == 512
        assert all(apery_polynomial("a", *key) == value for key, value in first.items())
        assert apery_polynomial.cache_info().misses >= 2 * len(keys) - 512
        assert apery_polynomial.cache_info().currsize == 512
        apery_polynomial.cache_clear()

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_apery("c", 0, 4, 8)
        with pytest.raises(ValueError):
            apery_polynomial("a", -1, 2)
        with pytest.raises(ValueError):
            apery_polynomial("c", 0, 2)
        with pytest.raises(ValueError):
            verify_apery("a", 0, 0, 8)


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
                with pytest.raises(ValueError, match=r"^n_box .* must be nonnegative of length 1$"):
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
