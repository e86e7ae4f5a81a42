import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlucas import relations
from qlucas.catalog import central_power_sequence, geometric_sequence
from qlucas.relations import (
    OrderTooSmall,
    RelationCandidate,
    _bareiss_echelon,
    _monomials,
    _nullspace_vector,
    find_relations,
    verify_relation,
)
from qlucas.series import InsufficientTruncation


def fraction_kernel(matrix):
    # reduced row echelon over Fraction, then one special solution per free column
    m, n = len(matrix), len(matrix[0])
    rows = [[Fraction(v) for v in r] for r in matrix]
    pivots = []
    level = 0
    for col in range(n):
        pr = next((i for i in range(level, m) if rows[i][col]), None)
        if pr is None:
            continue
        rows[level], rows[pr] = rows[pr], rows[level]
        pv = rows[level][col]
        rows[level] = [v / pv for v in rows[level]]
        for i in range(m):
            if i != level and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[level])]
        pivots.append((level, col))
        level += 1
        if level == m:
            break
    pivot_cols = {c for _, c in pivots}
    basis = {}
    for fc in range(n):
        if fc in pivot_cols:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, c in pivots:
            if c < fc:
                v[c] = -rows[r][fc]
        basis[fc] = v
    return pivot_cols, basis


class TestKernel:
    @pytest.mark.parametrize("seed,m,n", [(1, 8, 6), (2, 6, 9), (3, 10, 10)])
    def test_matches_fraction_oracle(self, seed, m, n):
        rng = random.Random(seed)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        rows, pivots = _bareiss_echelon(matrix)
        pivot_cols = {c for _, c in pivots}
        oracle_pivots, oracle_basis = fraction_kernel(matrix)
        assert pivot_cols == oracle_pivots
        for fc in range(n):
            if fc in pivot_cols:
                continue
            vec = _nullspace_vector(rows, pivots, fc, n)
            assert [Fraction(v, vec[fc]) for v in vec] == oracle_basis[fc]

    def test_forced_rank_deficiency(self):
        rng = random.Random(7)
        base = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(7)]
        matrix = [
            r + [r[0] + r[1], 2 * r[2] - r[3], r[0]] for r in base
        ]
        rows, pivots = _bareiss_echelon(matrix)
        pivot_cols = {c for _, c in pivots}
        oracle_pivots, oracle_basis = fraction_kernel(matrix)
        assert pivot_cols == oracle_pivots
        assert len(pivot_cols) <= 4
        for fc in oracle_basis:
            vec = _nullspace_vector(rows, pivots, fc, 7)
            assert [Fraction(v, vec[fc]) for v in vec] == oracle_basis[fc]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_vector_of_low_rank_products(self, data):
        # M = B C has rank at most k; zeroed columns add free columns of their own
        m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        k = data.draw(st.integers(1, 4))
        entries = st.integers(-6, 6)
        b = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
        c = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
        zeroed = data.draw(st.sets(st.integers(0, n - 1)))
        matrix = [
            [0 if j in zeroed else sum(b[i][t] * c[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)
        ]
        rows, pivots = _bareiss_echelon(matrix)
        _, oracle_basis = fraction_kernel(matrix)
        assert {col for _, col in pivots} | set(oracle_basis) == set(range(n))
        for fc, want in oracle_basis.items():
            vec = _nullspace_vector(rows, pivots, fc, n)
            assert all(type(v) is int for v in vec)
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in matrix)
            assert [Fraction(v, vec[fc]) for v in vec] == want


class TestMonomialOrder:
    def test_two_series_order(self):
        monos = _monomials(2, 1, 1)
        # graded, x below y1 below y2
        assert monos == [
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 0),
            (1, 0, 1),
        ]

    def test_counts(self):
        assert len(_monomials(2, 4, 4)) == 5 * 15
        assert len(_monomials(1, 1, 2)) == 6

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_refusal_counts_the_box(self, s):
        # the refusal counts the columns without listing them
        for dx in range(4):
            for dy in range(5):
                with pytest.raises(OrderTooSmall) as exc:
                    find_relations([[1]] * s, dx, dy, 0)
                ncols = len(_monomials(s, dx, dy))
                assert str(exc.value) == f"order 0 is too small for {ncols} columns plus margin 5"


class TestFindRelations:
    def test_geometric_recovery(self):
        data = [geometric_sequence(40)]
        found = find_relations(data, dx=1, dy=1, order=20)
        assert len(found) == 1
        cand = found[0]
        assert dict(cand.terms) == {(0, 0): 1, (0, 1): -1, (1, 1): 1}
        assert cand.verified_order == 20
        assert verify_relation(cand, data, 20)
        assert verify_relation(cand, data, 40)
        assert str(cand) == "x*y1 - y1 + 1"

    def test_central_binomial_recovery(self):
        data = [central_power_sequence(1, 64)]
        found = find_relations(data, dx=1, dy=2, order=30)
        assert len(found) == 1
        cand = found[0]
        assert dict(cand.terms) == {(0, 0): 1, (0, 2): -1, (1, 2): 4}
        assert verify_relation(cand, data, 30)
        assert verify_relation(cand, data, 60)

    def test_mutated_candidate_fails(self):
        data = [central_power_sequence(1, 40)]
        bad = RelationCandidate(
            terms=(((0, 0), 1), ((0, 2), -1), ((1, 2), 5)), verified_order=30
        )
        assert not verify_relation(bad, data, 30)

    def test_independent_pair_has_no_relation(self):
        data = [central_power_sequence(2, 41), central_power_sequence(3, 41)]
        assert find_relations(data, dx=2, dy=2, order=40) == []

    def test_fraction_data_cleared(self):
        half = [Fraction(1, 2) ** n for n in range(30)]
        found = find_relations([half], dx=1, dy=1, order=15)
        assert len(found) == 1
        assert dict(found[0].terms) == {(0, 0): 2, (0, 1): -2, (1, 1): 1}

    def test_normalization_is_primitive_and_positive(self):
        doubled = [2 * v for v in geometric_sequence(30)]
        found = find_relations([doubled], dx=1, dy=1, order=15)
        assert len(found) == 1
        coeffs = [c for _, c in found[0].terms]
        lead = found[0].terms[-1][1]
        assert lead > 0
        g = 0
        for c in coeffs:
            g = __import__("math").gcd(g, c)
        assert g == 1

    def test_determinism(self):
        data = [central_power_sequence(1, 40)]
        a = find_relations(data, dx=1, dy=2, order=30)
        b = find_relations(data, dx=1, dy=2, order=30)
        assert a == b


class TestValidation:
    def test_order_too_small_for_columns(self):
        data = [geometric_sequence(40)]
        # 6 columns plus margin 5 demands order at least 11
        with pytest.raises(OrderTooSmall):
            find_relations(data, dx=1, dy=2, order=10)
        find_relations(data, dx=1, dy=2, order=11)

    def test_short_data_raises(self):
        with pytest.raises(OrderTooSmall):
            find_relations([geometric_sequence(10)], dx=1, dy=1, order=20)

    def test_margin_override(self):
        data = [geometric_sequence(40)]
        with pytest.raises(OrderTooSmall):
            find_relations(data, dx=1, dy=2, order=10, margin=5)
        assert find_relations(data, dx=1, dy=2, order=10, margin=4)

    def test_refusal_lists_no_monomials(self, monkeypatch):
        # the box of 3 series at dy = 60 has 39,711 monomials; order 10 needs none
        def refuse(*box):
            raise AssertionError(f"listed the monomials of {box}")

        monkeypatch.setattr(relations, "_monomials", refuse)
        with pytest.raises(OrderTooSmall, match="39711 columns"):
            find_relations([geometric_sequence(11)] * 3, dx=0, dy=60, order=10)

    def test_negative_margin_rejected(self):
        # A negative margin would admit an underdetermined system.
        with pytest.raises(ValueError, match="margin"):
            find_relations([geometric_sequence(40)], dx=1, dy=2, order=3, margin=-20)

    def test_verify_short_data_raises(self):
        cand = RelationCandidate(
            terms=(((0, 0), 1), ((0, 1), -1), ((1, 1), 1)), verified_order=20
        )
        with pytest.raises(InsufficientTruncation):
            verify_relation(cand, [geometric_sequence(10)], 20)

    def test_verify_series_count_mismatch(self):
        cand = RelationCandidate(
            terms=(((0, 0), 1), ((0, 1), -1), ((1, 1), 1)), verified_order=20
        )
        with pytest.raises(ValueError):
            verify_relation(cand, [geometric_sequence(30)] * 2, 20)

    def test_negative_degrees_rejected(self):
        with pytest.raises(ValueError):
            find_relations([geometric_sequence(40)], dx=-1, dy=1, order=20)


ORDER = 20
COEFFS = st.lists(st.integers(-3, 3), min_size=ORDER + 1, max_size=ORDER + 1)


def naive_column(series, mono, order):
    """Coefficients of x^i * y_1^a_1 * ... through order, by repeated products."""
    col = [1] + [0] * order
    for y, a in zip(series, mono[1:]):
        for _ in range(a):
            col = [sum(col[k] * y[r - k] for k in range(r + 1)) for r in range(order + 1)]
    i = mono[0]
    return [0] * i + col[: order + 1 - i]


class TestFindRelationsProperty:
    @settings(max_examples=40, deadline=None)
    @given(COEFFS, COEFFS, st.booleans())
    def test_count_is_the_nullity(self, y1, other, planted):
        # planted: y2 = y1^2 + x y1, so y2 - y1^2 - x y1 vanishes
        square = naive_column([y1], (0, 2), ORDER)
        y2 = [s + p for s, p in zip(square, [0] + y1)] if planted else other
        found = find_relations([y1, y2], 1, 2, ORDER)
        columns = [naive_column([y1, y2], mono, ORDER) for mono in _monomials(2, 1, 2)]
        matrix = [list(row) for row in zip(*columns)]
        pivot_cols, _ = fraction_kernel(matrix)
        assert len(found) == len(columns) - len(pivot_cols)
        assert all(verify_relation(c, [y1, y2], c.verified_order) for c in found)
        assert found or not planted


MONOMIALS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
NONZERO = st.integers(-3, 3).filter(bool)
FRACTION_COEFFS = st.lists(
    st.fractions(-3, 3, max_denominator=4), min_size=ORDER + 1, max_size=ORDER + 1
)


class TestVerifyRelationProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(COEFFS, FRACTION_COEFFS),
        MONOMIALS,
        NONZERO,
        st.dictionaries(MONOMIALS, NONZERO, min_size=1, max_size=4),
    )
    def test_matches_naive_residual(self, y1, mono, delta, drawn):
        # y2 = y1^2 + x y1 plants y2 - y1^2 - x y1; the mutation moves one coefficient
        square = naive_column([y1], (0, 2), ORDER)
        y2 = [s + p for s, p in zip(square, [0] + y1)]
        planted = {(0, 0, 1): 1, (0, 2, 0): -1, (1, 1, 0): -1}
        mutated = {**planted, mono: planted.get(mono, 0) + delta}
        for terms in (planted, mutated, drawn):
            terms = {m: c for m, c in terms.items() if c}
            columns = {m: naive_column([y1, y2], m, ORDER) for m in terms}
            residual = [sum(c * columns[m][r] for m, c in terms.items()) for r in range(ORDER + 1)]
            cand = RelationCandidate(tuple(sorted(terms.items())), ORDER)
            assert verify_relation(cand, [y1, y2], ORDER) == (not any(residual))
        assert verify_relation(RelationCandidate(tuple(planted.items()), ORDER), [y1, y2], ORDER)


class TestJson:
    def test_round_trip_shape(self):
        data = [geometric_sequence(40)]
        cand = find_relations(data, dx=1, dy=1, order=20)[0]
        blob = cand.to_json_dict()
        assert blob == {
            "terms": [[[0, 0], 1], [[0, 1], -1], [[1, 1], 1]],
            "verified_order": 20,
        }
