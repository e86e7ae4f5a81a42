"""landau tests: frozen small cases, a grid oracle for cells, a from-scratch
elimination oracle for the incremental search, and properties of the
immutable elimination levels."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlucas import catalog
from qlucas.landau import (
    DEFAULT_BUDGET,
    CellSignature,
    DimensionTooLarge,
    RationalPoint,
    SearchCounts,
    _box_constraints,
    _extend,
    _slab_constraints,
    check_landau,
    delta_at,
    enumerate_cells,
    in_domain_D,
    signature_at,
)
from qlucas.qcombinatorics import RatioSpec
from strategies import balanced_specs

CENTRAL = catalog.central_binomial_spec()
APERY = catalog.apery_spec()
INVERSE = catalog.inverse_central_spec()

unit_fraction = st.fractions(min_value=0, max_value=1, max_denominator=40).filter(
    lambda f: f < 1
)


def grid_signatures(spec, denominator):
    # Oracle: collect every floor signature seen on a rational grid.
    seen = {}
    dims = [range(denominator) for _ in range(spec.dim)]
    for nums in itertools.product(*dims):
        x = tuple(Fraction(k, denominator) for k in nums)
        sig = tuple(sorted(signature_at(spec, x).items()))
        seen.setdefault(sig, x)
    return seen


# Oracle: every search node eliminates its whole system from scratch, and
# witnesses come from back-substitution with the strictness tie rule.


def _reduce_constraint(coeffs, rhs, strict):
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if g > 1 and rhs % g == 0:
        return (tuple(c // g for c in coeffs), rhs // g, strict)
    return (tuple(coeffs), rhs, strict)


def _solve(cons, nvars):
    cons = set(cons)
    active = []
    for coeffs, rhs, strict in cons:
        if any(coeffs[:nvars]):
            active.append((coeffs, rhs, strict))
        elif rhs < 0 or (strict and rhs == 0):
            return None
    if nvars == 0:
        return ()
    var = nvars - 1
    lowers, uppers, others = [], [], []
    for c in active:
        cv = c[0][var]
        if cv < 0:
            lowers.append(c)
        elif cv > 0:
            uppers.append(c)
        else:
            others.append(c)
    projected = set(others)
    for lc, lr, ls in lowers:
        lv = -lc[var]
        for uc, ur, us in uppers:
            uv = uc[var]
            coeffs = tuple(lv * u + uv * l for l, u in zip(lc, uc))
            projected.add(_reduce_constraint(coeffs, lv * ur + uv * lr, ls or us))
    sub = _solve(projected, var)
    if sub is None:
        return None
    lo = up = None
    lo_strict = up_strict = False
    for coeffs, rhs, strict in lowers:
        rest = sum(c * v for c, v in zip(coeffs, sub))
        bound = Fraction(rhs - rest, coeffs[var])
        if lo is None or bound > lo or (bound == lo and strict):
            lo, lo_strict = bound, strict
    for coeffs, rhs, strict in uppers:
        rest = sum(c * v for c, v in zip(coeffs, sub))
        bound = Fraction(rhs - rest, coeffs[var])
        if up is None or bound < up or (bound == up and strict):
            up, up_strict = bound, strict
    if lo is None and up is None:
        val = Fraction(0)
    elif lo is None:
        val = up - 1
    elif up is None:
        val = lo + 1 if lo_strict else lo
    elif lo < up:
        val = (lo + up) / 2
    elif lo == up and not lo_strict and not up_strict:
        val = lo
    else:
        return None
    return sub + (val,)


def oracle_cells(spec):
    """The cells found by the same search with from-scratch elimination at
    every node, and the number of nodes it explores."""
    vectors = sorted(spec.distinct_nonzero_vectors(), key=lambda t: (-sum(t), t))
    results = []
    nodes = 0

    def walk(idx, assigned, cons):
        nonlocal nodes
        nodes += 1
        point = _solve(cons, spec.dim)
        if point is None:
            return
        if idx == len(vectors):
            witness = RationalPoint(point)
            results.append(CellSignature(tuple(sorted(assigned)), witness, delta_at(spec, witness)))
            return
        t = vectors[idx]
        for m in range(sum(t)):
            walk(idx + 1, assigned + [(t, m)], cons + _slab_constraints(t, m))

    walk(0, [], _box_constraints(spec.dim))
    return tuple(results), nodes


CATALOG_SPECS = [
    catalog.builtin_spec(name)
    for name in ("central:1", "central:2", "central:3", "binom:1", "binom:2", "apery", "inverse-central")
] + [catalog.apery_family_spec("b")]


class TestRationalPoint:
    def test_validation(self):
        p = RationalPoint((Fraction(1, 3), Fraction(0)))
        assert p.coords == (Fraction(1, 3), Fraction(0))
        with pytest.raises(ValueError):
            RationalPoint((Fraction(3, 2),))
        with pytest.raises(ValueError):
            RationalPoint((Fraction(-1, 2),))

    def test_json(self):
        assert RationalPoint((Fraction(1, 3), Fraction(0))).to_json() == ["1/3", "0"]


class TestDeltaAt:
    def test_frozen_values(self):
        assert delta_at(CENTRAL, (Fraction(1, 2),)) == 1
        assert delta_at(CENTRAL, (0,)) == 0
        assert delta_at(APERY, (Fraction(1, 2), Fraction(1, 2))) == 2
        assert delta_at(INVERSE, (Fraction(1, 2),)) == -1

    def test_accepts_points_outside_box(self):
        assert delta_at(CENTRAL, (Fraction(3, 2),)) == 1
        assert delta_at(CENTRAL, (Fraction(7, 3),)) == delta_at(CENTRAL, (Fraction(1, 3),))

    @given(unit_fraction)
    def test_periodicity_balanced(self, x):
        assert delta_at(CENTRAL, (x + 1,)) == delta_at(CENTRAL, (x,))

    @given(unit_fraction, unit_fraction)
    def test_periodicity_apery(self, x, y):
        base = delta_at(APERY, (x, y))
        assert delta_at(APERY, (x + 1, y)) == base
        assert delta_at(APERY, (x, y + 2)) == base

    def test_length_check(self):
        with pytest.raises(ValueError):
            delta_at(APERY, (Fraction(1, 2),))


class TestDomainMembership:
    def test_frozen(self):
        assert in_domain_D(CENTRAL, (Fraction(1, 2),))
        assert not in_domain_D(CENTRAL, (Fraction(1, 4),))
        assert not in_domain_D(CENTRAL, (0,))
        # both dot products stay below 1 here
        assert not in_domain_D(APERY, (Fraction(1, 3), Fraction(1, 4)))
        assert in_domain_D(APERY, (Fraction(1, 2), Fraction(1, 2)))

    def test_requires_unit_box(self):
        with pytest.raises(ValueError):
            in_domain_D(CENTRAL, (Fraction(3, 2),))


class TestEnumerateCells:
    def test_central_two_cells(self):
        cells = enumerate_cells(CENTRAL)
        assert len(cells) == 2
        floors = sorted(c.floors for c in cells)
        # the denominator vector (1,) is part of the arrangement, always at 0
        assert floors == [
            (((1,), 0), ((2,), 0)),
            (((1,), 0), ((2,), 1)),
        ]
        for c in cells:
            assert signature_at(CENTRAL, c.witness) == dict(c.floors)

    def test_apery_cells_match_grid_oracle(self):
        cells = enumerate_cells(APERY)
        assert len(cells) == 4
        enumerated = {c.floors for c in cells}
        oracle = set(grid_signatures(APERY, 60))
        assert enumerated == oracle
        values = sorted(c.value for c in cells)
        assert values == [0, 1, 2, 3]

    def test_witnesses_reproduce_signatures(self):
        for spec in (CENTRAL, APERY, INVERSE, catalog.binomial_spec(2)):
            for cell in enumerate_cells(spec):
                assert signature_at(spec, cell.witness) == dict(cell.floors), cell

    def test_grid_oracle_inverse(self):
        cells = enumerate_cells(INVERSE)
        assert {c.floors for c in cells} == set(grid_signatures(INVERSE, 60))

    def test_budget_exceeded(self):
        with pytest.raises(DimensionTooLarge) as exc:
            enumerate_cells(APERY, budget=3)
        assert exc.value.budget == 3
        assert "budget of 3 nodes and constraints" in str(exc.value)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            enumerate_cells(APERY, budget=budget)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            check_landau(APERY, budget=budget)

    def test_budget_charges_constraints(self):
        # apery explores 18 nodes that keep 30 constraints: a budget on
        # nodes alone would pass well below their sum of 48.
        assert len(enumerate_cells(APERY, budget=48)) == 4
        with pytest.raises(DimensionTooLarge):
            enumerate_cells(APERY, budget=47)

    @pytest.mark.parametrize("spec", CATALOG_SPECS, ids=str)
    def test_catalog_specs_within_default_budget(self, spec):
        rep = check_landau(spec)
        assert rep.nodes + rep.constraints <= DEFAULT_BUDGET

    def test_zero_vector_skipped(self):
        spec = RatioSpec(1, ((0,), (1,)), ((1,),))
        cells = enumerate_cells(spec)
        assert len(cells) == 1
        assert cells[0].floors == (((1,), 0),)
        assert cells[0].value == 0 == delta_at(spec, cells[0].witness)

    def test_deterministic(self):
        assert enumerate_cells(APERY) == enumerate_cells(APERY)

    @settings(max_examples=60, deadline=None)
    @given(balanced_specs(max_dim=3))
    @example(APERY)
    @example(INVERSE)
    @example(catalog.apery_family_spec("b"))
    @example(RatioSpec(3, ((2, 1, 1), (1, 2, 1)), ((1, 1, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0))))
    def test_matches_from_scratch_oracle(self, spec):
        counts = SearchCounts()
        cells = enumerate_cells(spec, counts=counts)
        expected, nodes = oracle_cells(spec)
        assert [c.floors for c in cells] == [c.floors for c in expected]
        assert [c.witness for c in cells] == [c.witness for c in expected]
        assert [c.value for c in cells] == [c.value for c in expected]
        assert counts.nodes == nodes
        for c in cells:
            assert signature_at(spec, c.witness) == dict(c.floors), c


def _slabs(spec):
    return st.lists(
        st.sampled_from([(t, m) for t in spec.distinct_nonzero_vectors() for m in range(sum(t))]),
        min_size=1,
        max_size=2,
    ).map(lambda slabs: [con for t, m in slabs for con in _slab_constraints(t, m)])


def _box_levels(spec):
    empty = ({},) * (spec.dim + 1)
    return _extend(empty, _box_constraints(spec.dim), lambda *_: None)


def _direction(coeffs):
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs), g


def _tightest_bounds(levels):
    # per level, each direction's bound as (rhs / gcd, strict): the tightest
    # bounds do not depend on which of several equal constraints a route keeps
    if levels is None:
        return None
    out = []
    for tightest in levels:
        bounds = {}
        for coeffs, rhs, strict in (con for con, _ in tightest.values()):
            key, g = _direction(coeffs)
            bounds[key] = (Fraction(rhs, g), strict)
        out.append(bounds)
    return out


def _grow(spec, data, steps):
    """Box levels extended by up to steps drawn slab batches, or None."""
    levels = _box_levels(spec)
    for _ in range(steps):
        if levels is None:
            break
        levels = _extend(levels, data.draw(_slabs(spec)), lambda *_: None)
    return levels


class TestExtend:
    @settings(max_examples=40, deadline=None)
    @given(balanced_specs(max_dim=3), st.data())
    def test_children_leave_parent_unchanged(self, spec, data):
        parent = _grow(spec, data, 1)
        if parent is None:
            return
        copy = [dict(tightest) for tightest in parent]
        _extend(parent, data.draw(_slabs(spec)), lambda *_: None)
        _extend(parent, data.draw(_slabs(spec)), lambda *_: None)
        assert [dict(tightest) for tightest in parent] == copy

    @settings(max_examples=60, deadline=None)
    @given(balanced_specs(max_dim=3), st.data())
    def test_two_steps_equal_one(self, spec, data):
        # The charges may differ: in two steps a bound of a can be kept and
        # then replaced by a tighter one of b, which at once is never kept.
        a, b = data.draw(_slabs(spec)), data.draw(_slabs(spec))
        base = _box_levels(spec)
        mid = _extend(base, a, lambda *_: None)
        two = None if mid is None else _extend(mid, b, lambda *_: None)
        one = _extend(base, a + b, lambda *_: None)
        assert _tightest_bounds(two) == _tightest_bounds(one)

    @settings(max_examples=60, deadline=None)
    @given(balanced_specs(max_dim=3), st.data())
    def test_one_constraint_per_direction(self, spec, data):
        levels = _grow(spec, data, 3)
        if levels is None:
            return
        for tightest in levels:
            held = [con for con, _ in tightest.values()]
            assert [_direction(con[0]) for con in held] == [(key, g) for key, (_, g) in tightest.items()]


class TestCheckLandau:
    def test_central(self):
        rep = check_landau(CENTRAL)
        assert rep.integrality and rep.criterion_D and rep.ok
        assert rep.min_value_overall == 0
        assert rep.min_value_on_D == 1
        assert rep.num_cells == 2
        assert rep.violating_cells == ()

    def test_apery(self):
        rep = check_landau(APERY)
        assert rep.ok
        assert rep.min_value_overall == 0
        assert rep.min_value_on_D == 1
        assert rep.num_cells == 4
        assert (rep.nodes, rep.constraints) == (18, 30)

    def test_inverse_central_fails_with_witness(self):
        rep = check_landau(INVERSE)
        assert not rep.integrality
        assert not rep.criterion_D
        assert rep.min_value_overall == -1
        assert rep.min_value_on_D == -1
        assert len(rep.violating_cells) == 1
        bad = rep.violating_cells[0]
        assert bad.value == -1
        assert dict(bad.floors) == {(1,): 0, (2,): 1}
        w = bad.witness.coords[0]
        assert Fraction(1, 2) <= w < 1
        assert delta_at(INVERSE, bad.witness) == -1

    def test_empty_domain_is_vacuous(self):
        spec = RatioSpec(1, ((1,),), ((1,),))
        rep = check_landau(spec)
        assert rep.integrality and rep.criterion_D
        assert rep.min_value_on_D is None
        assert rep.num_cells == 1

    def test_unbalanced_spec_reported(self):
        spec = RatioSpec(1, ((1,),), ())
        rep = check_landau(spec)
        assert rep.integrality
        assert rep.min_value_overall == 0
        assert rep.min_value_on_D is None

    @settings(max_examples=60, deadline=None)
    @given(balanced_specs(max_dim=3))
    @example(INVERSE)
    @example(RatioSpec(1, ((1,),), ((1,),)))
    def test_verdicts_follow_from_cells(self, spec):
        # each cell's value and domain flag agree with pointwise evaluation at
        # its witness, and the verdicts read from the minima agree with their
        # definitions over all cells
        cells = enumerate_cells(spec)
        for c in cells:
            assert c.value == delta_at(spec, c.witness), c
            assert c.in_domain == in_domain_D(spec, c.witness), c
        rep = check_landau(spec)
        assert rep.integrality == all(c.value >= 0 for c in cells)
        assert rep.criterion_D == all(c.value >= 1 for c in cells if c.in_domain)
        assert rep.violating_cells == tuple(
            c for c in cells if c.value < 0 or (c.in_domain and c.value < 1)
        )

    def test_json_shape(self):
        data = check_landau(INVERSE).to_json_dict()
        assert data["integrality"] is False
        assert data["num_cells"] == 2
        assert data["violating_cells"][0]["floors"] == [[[1], 0], [[2], 1]]
        assert data["violating_cells"][0]["value"] == -1
        assert data["spec"] == INVERSE.to_json_dict()
        assert (data["nodes"], data["constraints"]) == (5, 4)

    def test_reference_pool(self):
        # the benchmark's decide pool: 840 specs of dimension 1-3 with their
        # recorded verdicts
        path = Path(__file__).resolve().parents[1] / "bench" / "landau_refs.json"
        fields = ("integrality", "criterion_D", "min_value_overall", "min_value_on_D", "num_cells")
        refs = json.loads(path.read_text())["specs"]
        assert len(refs) == 840
        for ref in refs:
            rep = check_landau(RatioSpec(ref["dim"], ref["e"], ref["f"]))
            assert [getattr(rep, name) for name in fields] == [ref[name] for name in fields], ref


class TestConsistency:
    def test_random_points_agree_with_cells(self):
        rng = random.Random(20260814)
        for spec in (CENTRAL, APERY, INVERSE):
            cells = {c.floors: c for c in enumerate_cells(spec)}
            for _ in range(300):
                x = tuple(
                    Fraction(rng.randrange(0, 97), 97) for _ in range(spec.dim)
                )
                sig = tuple(sorted(signature_at(spec, x).items()))
                assert sig in cells, (spec, x)
                cell = cells[sig]
                assert delta_at(spec, x) == cell.value
                assert in_domain_D(spec, x) == cell.in_domain
