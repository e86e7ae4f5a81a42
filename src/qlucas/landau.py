"""Decision procedures for the floor-sum step function of a ratio spec.

For a spec with vectors e_1..e_u over f_1..f_v the step function is

    delta(x) = sum_i floor(e_i . x) - sum_j floor(f_j . x).

Its sign pattern on the unit box decides two properties of the factorial
ratio: the ratio is a polynomial at every point iff delta >= 0 everywhere
(the exponent of every cyclotomic factor is a value of delta), and the
stronger hypothesis used by the congruence verifiers asks delta >= 1 on the
subdomain D of points where some t . x >= 1.

The unit box splits into finitely many cells on which every floor(t . x) is
constant. A cell is cut out by weak lower bounds t . x >= m_t, strict upper
bounds t . x < m_t + 1, and the box bounds 0 <= x_i < 1. Every nonempty cell
is full-dimensional: at any cell point, adding a small positive multiple of
the all-ones vector keeps all strict bounds (they have slack) and pushes every
weak bound strictly off its face (the vectors t are nonnegative and nonzero),
so an interior point exists. Midpoint witnesses are therefore exact, and a
rational grid sample can discover every cell; the tests use that as an oracle.

Feasibility is decided by exact Fourier-Motzkin elimination over the
integers, tracking strictness; witnesses come from back-substitution with
Fraction midpoints. All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .qcombinatorics import RatioSpec

Vector = tuple[int, ...]
Rational = Union[int, Fraction]

#: Default cap on search nodes explored while enumerating cell signatures.
DEFAULT_BUDGET = 10**6

class DimensionTooLarge(RuntimeError):
    """Cell enumeration exceeded its search budget."""

    def __init__(self, budget: int):
        super().__init__(f"cell enumeration exceeded the budget of {budget} nodes")
        self.budget = budget


@dataclass(frozen=True)
class RationalPoint:
    """A point of the half-open unit box with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        norm = tuple(Fraction(c) for c in self.coords)
        if any(c < 0 or c >= 1 for c in norm):
            raise ValueError(f"coordinates {norm} must lie in [0, 1)")
        object.__setattr__(self, "coords", norm)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]


@dataclass(frozen=True)
class CellSignature:
    """Constant floor values of every nonzero spec vector on one cell."""

    floors: tuple[tuple[Vector, int], ...]  # sorted by vector
    witness: Optional[RationalPoint]

    def floors_dict(self) -> dict[Vector, int]:
        return dict(self.floors)

    def floor_of(self, t: Sequence[int]) -> int:
        key = tuple(t)
        if not any(key):
            return 0
        return dict(self.floors)[key]

    @property
    def in_domain(self) -> bool:
        """Whether the cell lies in the subdomain D (some floor >= 1)."""
        return any(m >= 1 for _, m in self.floors)

    def value(self, spec: RatioSpec) -> int:
        """delta on this cell, counting vector multiplicity."""
        lookup = dict(self.floors)
        sig = lambda t: lookup.get(tuple(t), 0)
        return sum(sig(t) for t in spec.e) - sum(sig(t) for t in spec.f)

    def to_json_dict(self) -> dict:
        return {
            "floors": [[list(t), m] for t, m in self.floors],
            "witness": self.witness.to_json() if self.witness else None,
        }


@dataclass(frozen=True)
class CellValue:
    cell: CellSignature
    value: int
    in_domain: bool

    def to_json_dict(self) -> dict:
        out = self.cell.to_json_dict()
        out["value"] = self.value
        out["in_domain"] = self.in_domain
        return out


@dataclass(frozen=True)
class LandauReport:
    """Outcome of the two step-function hypotheses for one spec."""

    spec: RatioSpec
    integrality: bool
    criterion_D: bool
    min_value_overall: int
    min_value_on_D: Optional[int]
    num_cells: int
    violating_cells: tuple[CellValue, ...]

    @property
    def ok(self) -> bool:
        return self.integrality and self.criterion_D

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "integrality": self.integrality,
            "criterion_D": self.criterion_D,
            "min_value_overall": self.min_value_overall,
            "min_value_on_D": self.min_value_on_D,
            "num_cells": self.num_cells,
            "violating_cells": [cv.to_json_dict() for cv in self.violating_cells],
        }


# -- pointwise evaluation --------------------------------------------------------


def _coerce_vector(x: Sequence[Rational], dim: int) -> tuple[Fraction, ...]:
    out = tuple(Fraction(c) for c in x)
    if len(out) != dim:
        raise ValueError(f"point has {len(out)} coordinates, expected {dim}")
    return out


def delta_at(spec: RatioSpec, x: Union[RationalPoint, Sequence[Rational]]) -> int:
    """The step function at any exact rational vector."""
    coords = x.coords if isinstance(x, RationalPoint) else _coerce_vector(x, spec.dim)
    fl = lambda t: math.floor(sum(c * xi for c, xi in zip(t, coords)))
    return sum(fl(t) for t in spec.e) - sum(fl(t) for t in spec.f)


def _unit_box_vector(spec: RatioSpec, x) -> tuple[Fraction, ...]:
    coords = x.coords if isinstance(x, RationalPoint) else _coerce_vector(x, spec.dim)
    if any(c < 0 or c >= 1 for c in coords):
        raise ValueError(f"point {coords} must lie in the half-open unit box")
    return coords


def in_domain_D(spec: RatioSpec, x: Union[RationalPoint, Sequence[Rational]]) -> bool:
    """Whether some spec vector t has t . x >= 1 (x inside the unit box)."""
    coords = _unit_box_vector(spec, x)
    return any(
        sum(c * xi for c, xi in zip(t, coords)) >= 1
        for t in spec.distinct_nonzero_vectors()
    )


def signature_at(spec: RatioSpec, x: Union[RationalPoint, Sequence[Rational]]) -> dict[Vector, int]:
    """Floor values of every distinct nonzero vector at a unit-box point."""
    coords = _unit_box_vector(spec, x)
    return {
        t: math.floor(sum(c * xi for c, xi in zip(t, coords)))
        for t in spec.distinct_nonzero_vectors()
    }


# -- exact feasibility ------------------------------------------------------------

# A constraint is (coeffs, rhs, strict) meaning coeffs . x <= rhs, with
# integer entries throughout; strictness is tracked separately.
Constraint = tuple[Vector, int, bool]


def _reduce_constraint(coeffs: Sequence[int], rhs: int, strict: bool) -> Constraint:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if g > 1 and rhs % g == 0:
        return (tuple(c // g for c in coeffs), rhs // g, strict)
    return (tuple(coeffs), rhs, strict)


def _solve(cons: Iterable[Constraint], nvars: int) -> Optional[tuple[Fraction, ...]]:
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
    lo: Optional[Fraction] = None
    up: Optional[Fraction] = None
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


def _box_constraints(dim: int) -> list[Constraint]:
    out: list[Constraint] = []
    for i in range(dim):
        unit = tuple(1 if j == i else 0 for j in range(dim))
        neg = tuple(-c for c in unit)
        out.append((neg, 0, False))  # x_i >= 0
        out.append((unit, 1, True))  # x_i < 1
    return out


def _slab_constraints(t: Vector, m: int) -> list[Constraint]:
    neg = tuple(-c for c in t)
    return [(neg, -m, False), (t, m + 1, True)]  # m <= t.x < m+1


# -- cell enumeration --------------------------------------------------------------


def enumerate_cells(spec: RatioSpec, budget: int = DEFAULT_BUDGET) -> tuple[CellSignature, ...]:
    """All nonempty floor-signature cells of the unit box, with witnesses.

    Vectors are assigned largest component sum first; partial assignments
    that are already infeasible prune the whole subtree. The budget bounds
    the number of search nodes explored and raises DimensionTooLarge when
    exceeded.
    """
    vectors = sorted(spec.distinct_nonzero_vectors(), key=lambda t: (-sum(t), t))
    base = _box_constraints(spec.dim)
    results: list[CellSignature] = []
    nodes = 0

    def walk(idx: int, assigned: list[tuple[Vector, int]], cons: list[Constraint]):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise DimensionTooLarge(budget)
        point = _solve(cons, spec.dim)
        if point is None:
            return
        if idx == len(vectors):
            witness = RationalPoint(point)
            floors = tuple(sorted(assigned))
            results.append(CellSignature(floors, witness))
            return
        t = vectors[idx]
        for m in range(sum(t)):
            walk(idx + 1, assigned + [(t, m)], cons + _slab_constraints(t, m))

    walk(0, [], list(base))
    return tuple(results)


def check_landau(spec: RatioSpec, budget: int = DEFAULT_BUDGET) -> LandauReport:
    """Decide both step-function hypotheses by exhausting the cells.

    Integrality holds iff delta >= 0 on every cell; the stronger hypothesis
    additionally needs delta >= 1 on every cell inside D (vacuously true when
    D is empty, in which case the domain minimum is reported as None).
    Violating cells carry exact rational witnesses. Specs whose column sums
    disagree are still analyzed; the minima then refer to the unit box only.
    """
    cells = enumerate_cells(spec, budget)
    values = [CellValue(c, c.value(spec), c.in_domain) for c in cells]
    min_overall = min(cv.value for cv in values)
    domain_values = [cv.value for cv in values if cv.in_domain]
    min_on_domain = min(domain_values) if domain_values else None
    integrality = min_overall >= 0
    criterion = all(v >= 1 for v in domain_values)
    violating: list[CellValue] = []
    for cv in values:
        if cv.value < 0 or (cv.in_domain and cv.value < 1):
            violating.append(cv)
    return LandauReport(
        spec=spec,
        integrality=integrality,
        criterion_D=criterion,
        min_value_overall=min_overall,
        min_value_on_D=min_on_domain,
        num_cells=len(cells),
        violating_cells=tuple(violating),
    )
