"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the timing
lines on passing runs). Every check is exact; the only tolerances are the
wall-clock budgets asserted at the end of each criterion.
"""

import json
import re
import time
from fractions import Fraction
from random import Random

from qlucas.catalog import (
    apery_spec,
    central_binomial_spec,
    central_power_sequence,
    factorial_sequence,
    inverse_central_spec,
)
from qlucas.cli import main
from qlucas.congruence import (
    apery_polynomial,
    verify_apery,
    verify_plucas_at_one,
    verify_ratio_congruence,
)
from qlucas.intpoly import ONE, cyclotomic, monomial
from qlucas.landau import check_landau, delta_at, enumerate_cells, in_domain_D, signature_at
from qlucas.qcombinatorics import RatioSpec, iter_box, q_ratio, q_ratio_cyclotomic
from qlucas.relations import find_relations, verify_relation
from qlucas.series import TruncatedSeries, build_F, specialize, verify_definition_Ld


def _totients(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _prime_power_base(b):
    for p in range(2, b + 1):
        if b % p == 0:
            while b % p == 0:
                b //= p
            return p if b == 1 else None
    return None


def _random_balanced_spec(rng, dim):
    while True:
        e = [
            tuple(rng.randint(0, 2) for _ in range(dim))
            for _ in range(rng.randint(1, 2))
        ]
        f = [
            tuple(rng.randint(0, 2) for _ in range(dim))
            for _ in range(rng.randint(1, 2))
        ]
        e = [v for v in e if any(v)]
        f = [v for v in f if any(v)]
        for j in range(dim):
            gap = sum(v[j] for v in e) - sum(v[j] for v in f)
            unit = tuple(1 if i == j else 0 for i in range(dim))
            if gap > 0:
                f.extend([unit] * gap)
            elif gap < 0:
                e.extend([unit] * (-gap))
        if not e or not f:
            continue
        return RatioSpec(dim, tuple(e), tuple(f))


def _random_specs(seed, count, predicate):
    rng = Random(seed)
    out = []
    for _ in range(4000):
        spec = _random_balanced_spec(rng, rng.randint(1, 2))
        if predicate(spec):
            out.append(spec)
            if len(out) == count:
                return out
    raise AssertionError(f"could not draw {count} specs")


def test_criterion_01_cyclotomic_kernel():
    start = time.perf_counter()
    totient = _totients(200)
    for b in range(1, 201):
        divisor_product = ONE
        for d in range(1, b + 1):
            if b % d == 0:
                divisor_product = divisor_product * cyclotomic(d)
        assert divisor_product == monomial(b) - ONE
        assert cyclotomic(b).degree == totient[b]
        if b >= 2:
            base = _prime_power_base(b)
            assert cyclotomic(b).eval_at_one() == (base if base else 1)
        else:
            assert cyclotomic(1).eval_at_one() == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"criterion 1: PASS ({elapsed:.1f}s) cyclotomic kernel identities, b <= 200")


def test_criterion_02_dual_path_ratio():
    start = time.perf_counter()
    central = central_binomial_spec()
    for n in range(51):
        assert q_ratio(central, (n,)) == q_ratio_cyclotomic(central, (n,))
    apery = apery_spec()
    for n in iter_box((12, 12)):
        assert q_ratio(apery, n) == q_ratio_cyclotomic(apery, n)
    specs = _random_specs(20240801, 20, lambda s: check_landau(s).integrality)
    for spec in specs:
        box = (4,) if spec.dim == 1 else (3, 3)
        for n in iter_box(box):
            assert q_ratio(spec, n) == q_ratio_cyclotomic(spec, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"criterion 2: PASS ({elapsed:.1f}s) dual-path ratio identity, 20 random specs")


def test_criterion_03_lucas_congruence_powers():
    start = time.perf_counter()
    for r in (1, 2, 3):
        report = verify_ratio_congruence(central_binomial_spec(r), 20, (8,))
        assert report.ok, report.failures[:1]
        assert report.checked == sum(b * 9 for b in range(1, 21))
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 3: PASS ({elapsed:.1f}s) central binomial powers, b <= 20, n <= 8")


def test_criterion_04_congruence_sweep_random():
    start = time.perf_counter()
    report = verify_ratio_congruence(apery_spec(), 10, (5, 5))
    assert report.ok, report.failures[:1]
    specs = _random_specs(20240802, 10, lambda s: check_landau(s).ok)
    for spec in specs:
        box = (5,) * spec.dim
        report = verify_ratio_congruence(spec, 10, box)
        assert report.ok, (spec, report.failures[:1])
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 4: PASS ({elapsed:.1f}s) congruence sweep, 10 random specs, b <= 10")


def test_criterion_05_apery_families():
    start = time.perf_counter()
    for family in ("a", "b"):
        for t in (0, 1, 2):
            report = verify_apery(family, t, 12, 48)
            assert report.ok, (family, t, report.failures[:1])
    F = build_F(apery_spec(), (30, 30))
    for t in (0, 1, 2):
        diagonal = specialize(F, (t, 0), (1, 1), 30)
        for n in range(31):
            assert diagonal.coeff((n,)) == apery_polynomial("a", t, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(f"criterion 5: PASS ({elapsed:.1f}s) Apery families + sum-vs-series identity")


def test_criterion_06_landau_decision():
    start = time.perf_counter()
    apery = apery_spec()
    central = central_binomial_spec()
    inverse = inverse_central_spec()
    assert check_landau(apery).criterion_D
    assert check_landau(apery).integrality
    assert check_landau(central).criterion_D
    assert check_landau(central).integrality
    bad = check_landau(inverse)
    assert not bad.integrality
    assert bad.violating_cells
    witness = bad.violating_cells[0].witness
    assert witness is not None
    assert delta_at(inverse, witness) == bad.violating_cells[0].value < 0

    rng = Random(20240803)
    for spec, rounds in ((apery, 4000), (central, 3000), (inverse, 3000)):
        cells = {cs.floors: cs for cs in enumerate_cells(spec)}
        for _ in range(rounds):
            point = tuple(
                Fraction(rng.randrange(den), den)
                for den in (rng.randint(1, 60) for _ in range(spec.dim))
            )
            sig = signature_at(spec, point)
            cell = cells[tuple(sorted(sig.items()))]
            assert delta_at(spec, point) == cell.value
            assert in_domain_D(spec, point) == cell.in_domain
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"criterion 6: PASS ({elapsed:.1f}s) step-function certificates + 10^4 spot checks")


def test_criterion_07_prime_case_at_one():
    start = time.perf_counter()
    for r in (1, 2):
        report = verify_plucas_at_one(central_binomial_spec(r), 11, (6,))
        assert report.ok, report.failures[:1]
        assert report.checked == sum(p * 7 for p in (2, 3, 5, 7, 11))
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"criterion 7: PASS ({elapsed:.1f}s) q = 1 collapse, p <= 11, r in {{1, 2}}")


def test_criterion_08_functional_equation_class():
    start = time.perf_counter()
    for r in (1, 2, 3):
        series = TruncatedSeries.from_coefficients(central_power_sequence(r, 40))
        for p in (2, 3, 5):
            report = verify_definition_Ld(series, p, 1, 40)
            assert report.ok, (r, p, report.failures[:1])
    factorial = TruncatedSeries.from_coefficients(factorial_sequence(40))
    report = verify_definition_Ld(factorial, 2, 1, 40)
    assert not report.ok
    assert report.failures and report.failures[0].n == (2,)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"criterion 8: PASS ({elapsed:.1f}s) membership for g_r, factorial rejected")


def test_criterion_09_relation_probe():
    start = time.perf_counter()
    g1 = central_power_sequence(1, 64)
    found = find_relations([g1], dx=1, dy=2, order=30)
    assert len(found) == 1
    assert found[0].coefficient_map() == {(0, 0): 1, (0, 2): -1, (1, 2): 4}
    assert verify_relation(found[0], [g1], 60)

    pair = [central_power_sequence(2, 120), central_power_sequence(3, 120)]
    assert find_relations(pair, dx=4, dy=4, order=120) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(f"criterion 9: PASS ({elapsed:.1f}s) recovers known relation, none for {{g2, g3}}")


def test_criterion_10_cli_determinism(capsys):
    start = time.perf_counter()
    commands = [
        ["cyclotomic", "12"],
        ["qratio", "--spec", "apery", "--point", "3,3"],
        ["check-landau", "--spec", "apery"],
        ["verify-congruence", "--spec", "central:2", "--b-max", "4", "--n-box", "3"],
        ["verify-ld", "--series", "g2", "--p", "3", "--order", "16"],
        ["find-relations", "--series", "g1", "--dx", "1", "--dy", "2", "--order", "30"],
    ]
    stamp = re.compile(r'"timestamp": "[^"]+"')
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = main(argv + ["--format", "json"])
            text = capsys.readouterr().out
            json.loads(text)
            outputs.append(stamp.sub('"timestamp": "X"', text))
            assert code == 0, argv
        assert outputs[0] == outputs[1], argv
    elapsed = time.perf_counter() - start
    print(f"criterion 10: PASS ({elapsed:.1f}s) byte-identical JSON reruns, 6 commands")
