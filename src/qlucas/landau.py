"""Decision procedures for the floor-sum step function of a ratio spec.

For a spec with vectors e_1..e_u over f_1..f_v the step function is

    delta(x) = sum_i floor(e_i . x) - sum_j floor(f_j . x).

Its sign pattern on the unit box, with the column sums, decides two
properties of the factorial ratio: the ratio is a polynomial at every point
iff delta >= 0 everywhere (the exponent of every cyclotomic factor is a
value of delta), and the congruence verifiers' stronger hypothesis asks
delta >= 1 on the subdomain D of points where some t . x >= 1.

The unit box splits into finitely many cells on which every floor(t . x) is
constant. A cell is cut out by weak lower bounds t . x >= m_t, strict upper
bounds t . x < m_t + 1, and the box bounds 0 <= x_i < 1. Every nonempty cell
is full-dimensional: at any cell point, adding a small positive multiple of
the all-ones vector keeps all strict bounds (they have slack) and pushes every
weak bound strictly off its face (the vectors t are nonnegative and nonzero),
so an interior point exists. Midpoint witnesses are therefore exact, and a
rational grid sample can discover every cell; the tests use that as an oracle.

Each cell is one record, CellSignature: its floors, a witness point and the
value of delta there, which the search reads off the floors at the leaf. The
report keeps the minima of delta over the box and over D, and derives both
verdicts from them. One search serves both enumerate_cells and check_landau;
it builds a witness only at the leaves its caller keeps: every cell for
enumerate_cells, the violating cells for check_landau, whose report keeps
no other witness. Whether a cell violates is known from its floors alone.

Feasibility is decided by exact Fourier-Motzkin elimination over the
integers, tracking strictness. The cell search is incremental: each search
node holds one immutable constraint set per elimination level, and a child
derives its levels from its parent's by adding its two slab constraints,
pairing only the constraints new to a level against that level's opposite
bounds and checking only the new constraints left without a variable. A
level keeps one constraint per direction, the tightest, which removes the
simplest kind of redundancy in Fourier's elimination (J.-L. Imbert,
"Fourier's elimination: which to choose?", 1993): a new constraint that the
level's bound in its direction dominates is dropped before it is paired, and
one that dominates that bound replaces it. The parent's levels are left as
they were, so siblings start from the same levels and nothing is undone when
a subtree ends; from the first level that keeps nothing new, levels are
shared, not copied. Each level describes the same set, with the same
tightest bound per direction, as the child's system eliminated from scratch,
so internal nodes do no rational arithmetic. A unit vector e_i has floor 0
on the whole box and its slab 0 <= x_i < 1 is a box bound, which the top
level already holds or tightens; adding it would keep nothing, so its node
takes the parent's levels with no elimination at all (still counted as a
node). A leaf that needs a witness takes it by back-substitution through its
own levels, with midpoints between the tightest bounds. The back-substitution
also runs in integers, over one common denominator, and builds Fractions
only for the witness coordinates. All arithmetic is exact. The search
reports its nodes and kept constraints, and its budget caps their sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .qcombinatorics import RatioSpec, _check_ints

Vector = tuple[int, ...]
Rational = Union[int, Fraction]

#: Default cap on search nodes explored plus Fourier-Motzkin constraints they
#: keep while enumerating cell signatures.
DEFAULT_BUDGET = 10**6

class DimensionTooLarge(RuntimeError):
    """Cell enumeration exceeded its search budget."""

    def __init__(self, budget: int):
        super().__init__(f"cell enumeration exceeded the budget of {budget} nodes and constraints")
        self.budget = budget


@dataclass(frozen=True)
class RationalPoint:
    """A point of the half-open unit box with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        norm = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coords)
        if any(c < 0 or c >= 1 for c in norm):
            raise ValueError(f"coordinates {norm} must lie in [0, 1)")
        object.__setattr__(self, "coords", norm)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]


@dataclass(frozen=True)
class CellSignature:
    """One cell: the constant floor of every nonzero spec vector on it, an
    exact point inside it, and the value of delta there."""

    floors: tuple[tuple[Vector, int], ...]  # sorted by vector
    witness: RationalPoint
    value: int  # delta on the cell, counting vector multiplicity

    @property
    def in_domain(self) -> bool:
        """Whether the cell lies in the subdomain D (some floor >= 1)."""
        return any(m >= 1 for _, m in self.floors)

    def to_json_dict(self) -> dict:
        return {
            "floors": [[list(t), m] for t, m in self.floors],
            "witness": self.witness.to_json(),
            "value": self.value,
            "in_domain": self.in_domain,
        }


@dataclass(frozen=True)
class LandauReport:
    """Outcome of the two step-function hypotheses for one spec."""

    spec: RatioSpec
    min_value_overall: int
    min_value_on_D: Optional[int]  # None when D is empty
    num_cells: int
    violating_cells: tuple[CellSignature, ...]
    nodes: int  # search nodes explored
    constraints: int  # Fourier-Motzkin constraints kept

    @property
    def integrality(self) -> bool:
        """delta >= 0 on the unit box, and no column sum of f above e's: then
        delta(x + z) = delta(x) + (total_e - total_f) . z >= 0 for integer z >= 0."""
        return self.min_value_overall >= 0 and all(map(operator.ge, self.spec.total_e, self.spec.total_f))

    @property
    def criterion_D(self) -> bool:
        """delta >= 1 on D, vacuously true when D is empty."""
        return self.min_value_on_D is None or self.min_value_on_D >= 1

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
            "violating_cells": [cell.to_json_dict() for cell in self.violating_cells],
            "nodes": self.nodes,
            "constraints": self.constraints,
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


def _eliminate(lower: Constraint, upper: Constraint, var: int) -> tuple[Constraint, int]:
    """The sum of positive multiples of a lower and an upper bound on x_var
    in which x_var cancels, divided by the gcd of its coefficients when that
    also divides its right-hand side, and the gcd of the coefficients it is
    returned with. Strict if either bound is strict."""
    (lc, lr, ls), (uc, ur, us) = lower, upper
    lv, uv = -lc[var], uc[var]
    coeffs = [lv * u + uv * l for l, u in zip(lc, uc)]
    rhs = lv * ur + uv * lr
    g = math.gcd(*coeffs)
    if g > 1 and rhs % g == 0:
        return (tuple(c // g for c in coeffs), rhs // g, ls or us), 1
    return (tuple(coeffs), rhs, ls or us), g


@dataclass
class SearchCounts:
    """Deterministic work counters of one cell enumeration."""

    nodes: int = 0  # search nodes explored, pruned ones included
    constraints: int = 0  # constraints kept in the elimination levels


# Level d of a constraint system is the system over x_0..x_{d-1}: its
# tightest constraint in each direction, keyed by the direction (the
# coefficients over their gcd) and held with that gcd. A constraint bounds
# x_{d-1} from below if its coefficient there is negative, from above if it
# is positive.
Level = dict[Vector, tuple[Constraint, int]]
Levels = tuple[Level, ...]


def _extend(
    levels: Levels, new: Iterable[Constraint], charge: Callable[[int, int], None]
) -> Optional[Levels]:
    """The Fourier-Motzkin levels of a system grown by new constraints, or
    None once one with no variable left fails.

    Level dim is the input, and level d - 1 holds the constraints of level d
    free of x_{d-1} plus, for every lower bound on x_{d-1} and every upper
    bound, their combination with x_{d-1} eliminated. Constraints with no
    variable left are checked and not kept; the system is feasible iff none
    of them fails, since each level is the exact projection of the one above,
    strictness included. Back-substitution therefore needs no check.

    A level keeps one constraint per direction, the tightest: the smaller
    right-hand side over the gcd, the strict one on a tie. A new constraint
    that the level's bound in its direction dominates is dropped; one that
    dominates that bound replaces it. Every combination of a dropped bound
    is dominated by the same combination of the bound that replaced it, so
    each level describes the same set, with the same tightest bound per
    direction, as the levels without dropping.

    Only the constraints a level keeps are carried down to the next: new
    lower bounds pair with every upper bound, new upper bounds with the old
    lower bounds. So every level holds the tightest bound per direction of
    the grown system eliminated from scratch. The given levels are never
    changed: the result shares them from the first level that keeps nothing
    new. Each level's kept constraints are charged as they are added, top
    level first.
    """
    carried = [(con, math.gcd(*con[0])) for con in new]
    changed: list[Level] = []
    for d in range(len(levels) - 1, -1, -1):
        tightest = levels[d]
        kept: dict[Vector, tuple[Constraint, int]] = {}
        for con, g in carried:
            coeffs, rhs, strict = con
            if not g:
                if rhs < 0 or (strict and rhs == 0):
                    return None
                continue
            key = coeffs if g == 1 else tuple(c // g for c in coeffs)
            held = kept.get(key) or tightest.get(key)
            if held is not None:
                (_, held_rhs, held_strict), held_g = held
                # compare rhs / g with held_rhs / held_g
                if held_rhs * g < rhs * held_g or (
                    held_rhs * g == rhs * held_g and (held_strict or not strict)
                ):
                    continue
            kept[key] = (con, g)
        if not kept:
            return levels[: d + 1] + tuple(reversed(changed))
        charge(0, len(kept))
        var = d - 1
        carried, new_lowers, new_uppers = [], [], []
        for con, g in kept.values():
            if con[0][var] < 0:
                new_lowers.append(con)
            elif con[0][var] > 0:
                new_uppers.append(con)
            else:
                carried.append((con, g))
        level = {**tightest, **kept}
        uppers = [con for con, _ in level.values() if con[0][var] > 0]
        old_lowers = [con for key, (con, _) in tightest.items() if con[0][var] < 0 and key not in kept]
        carried += [_eliminate(lo, up, var) for lo in new_lowers for up in uppers]
        carried += [_eliminate(lo, up, var) for lo in old_lowers for up in new_uppers]
        changed.append(level)
    return tuple(reversed(changed))


def _witness(levels: Levels) -> tuple[Fraction, ...]:
    """A point of a feasible system by back-substitution, level 1 up.

    Each x_{d-1} is the midpoint of the tightest lower and upper bound on
    it given the coordinates before it; the box bounds make both exist.
    The back-substitution runs in integers: the coordinates are kept as
    numerators over one common denominator, a bound as a pair (n, c)
    standing for n / (c den) with c > 0, and only the output coordinates
    are built as Fractions.
    """
    nums: list[int] = []
    den = 1
    for var, level in enumerate(levels[1:]):
        # coeffs . x <= rhs is tight at x_var = (rhs den - rest) / (coeffs[var] den)
        lo_n = up_n = None
        lo_c = up_c = 1
        for (coeffs, rhs, _), _ in level.values():
            c = coeffs[var]
            if c < 0:
                n, c = sum(map(operator.mul, coeffs, nums)) - rhs * den, -c
                if lo_n is None or n * lo_c > lo_n * c:
                    lo_n, lo_c = n, c
            elif c > 0:
                n = rhs * den - sum(map(operator.mul, coeffs, nums))
                if up_n is None or n * up_c < up_n * c:
                    up_n, up_c = n, c
        # the midpoint (lo + up) / 2 in lowest terms, mid_n / mid_d
        mid_n, mid_d = lo_n * up_c + up_n * lo_c, 2 * lo_c * up_c * den
        g = math.gcd(mid_n, mid_d)
        mid_n, mid_d = mid_n // g, mid_d // g
        scale = mid_d // math.gcd(den, mid_d)
        nums = [n * scale for n in nums]
        den *= scale
        nums.append(mid_n * (den // mid_d))
    return tuple(Fraction(n, den) for n in nums)


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


def _search(
    spec: RatioSpec, budget: int, counts: SearchCounts, witnessed: Callable[[int, bool], bool]
) -> list[tuple[int, bool, Optional[CellSignature]]]:
    """Every nonempty cell in search order as (value of delta, whether it
    lies in D, its CellSignature), the CellSignature built only where
    witnessed(value, in_domain) holds and None elsewhere.

    Vectors are assigned largest component sum first; partial assignments
    that are already infeasible prune the whole subtree. A child node derives
    its elimination levels from its parent's, which stay unchanged, by adding
    its two slab constraints. A unit vector e_i (component sum 1) has floor 0
    on the whole box, and its one slab 0 <= x_i < 1 is a box bound that the
    top level already holds, or a tighter one, so its node takes the parent's
    levels as they are; the node is still charged. A leaf reads its value of
    delta off its floors, each weighted by the vector's count in e minus its
    count in f (a zero vector's floor is 0), and back-substitutes a witness
    through its own levels only when it is witnessed. Budget and counts are
    as in enumerate_cells.
    """
    _check_ints(budget=(budget, 1))
    vectors = sorted(spec.distinct_nonzero_vectors(), key=lambda t: (-sum(t), t))
    # each vector with its slabs, one per floor value; a unit vector's one slab adds nothing
    slabs = [
        (t, [_slab_constraints(t, m) if sum(t) > 1 else [] for m in range(sum(t))]) for t in vectors
    ]
    net = spec.net
    leaves: list[tuple[int, bool, Optional[CellSignature]]] = []

    def charge(nodes: int, constraints: int) -> None:
        counts.nodes += nodes
        counts.constraints += constraints
        if counts.nodes + counts.constraints > budget:
            raise DimensionTooLarge(budget)

    def walk(idx: int, assigned: list[tuple[Vector, int]], parent: Levels, new: list[Constraint]):
        charge(1, 0)
        levels = _extend(parent, new, charge) if new else parent
        if levels is None:
            return
        if idx == len(slabs):
            value = sum(net[t] * m for t, m in assigned)
            in_domain = any(m >= 1 for _, m in assigned)
            cell = None
            if witnessed(value, in_domain):
                witness = RationalPoint(_witness(levels))
                cell = CellSignature(tuple(sorted(assigned)), witness, value)
            leaves.append((value, in_domain, cell))
            return
        t, cons = slabs[idx]
        for m, new in enumerate(cons):
            walk(idx + 1, assigned + [(t, m)], levels, new)

    walk(0, [], ({},) * (spec.dim + 1), _box_constraints(spec.dim))
    return leaves


def enumerate_cells(
    spec: RatioSpec, budget: int = DEFAULT_BUDGET, counts: Optional[SearchCounts] = None
) -> tuple[CellSignature, ...]:
    """All nonempty floor-signature cells of the unit box, with witnesses
    and values, in search order; every cell gets its witness.

    The budget bounds the search nodes explored, unit-vector nodes included,
    plus the constraints they add to the levels, and raises DimensionTooLarge
    when exceeded; a budget below 1 is a ValueError. Both are tallied in
    counts, if given.
    """
    counts = counts if counts is not None else SearchCounts()
    return tuple(cell for _, _, cell in _search(spec, budget, counts, lambda *_: True))


def _violates(value: int, in_domain: bool) -> bool:
    """Whether a cell breaks a hypothesis: delta < 1 in D, delta < 0 outside."""
    return value < (1 if in_domain else 0)


def check_landau(spec: RatioSpec, budget: int = DEFAULT_BUDGET) -> LandauReport:
    """Decide both step-function hypotheses by exhausting the cells.

    Integrality holds iff delta >= 0 on every cell; the stronger hypothesis
    additionally needs delta >= 1 on every cell inside D (vacuously true when
    D is empty, in which case the domain minimum is reported as None); the
    report reads both from the minima. The search, budget and counts are
    enumerate_cells', but only violating cells get a witness, as they are the
    only cells the report keeps: whether a cell violates is known from its
    floors before the witness is built. Specs whose column sums disagree are
    still analyzed; the minima then refer to the unit box only.
    """
    counts = SearchCounts()
    leaves = _search(spec, budget, counts, _violates)
    return LandauReport(
        spec=spec,
        min_value_overall=min(value for value, _, _ in leaves),
        min_value_on_D=min((value for value, in_domain, _ in leaves if in_domain), default=None),
        num_cells=len(leaves),
        violating_cells=tuple(cell for _, _, cell in leaves if cell is not None),
        nodes=counts.nodes,
        constraints=counts.constraints,
    )
