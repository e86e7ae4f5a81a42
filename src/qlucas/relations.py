"""Exact search for algebraic relations among truncated coefficient sequences.

Given sequences y_1..y_s (power series in x known to some order, with exact
integer or Fraction coefficients), find_relations looks for polynomials
P(x, y_1..y_s), of degree at most dx in x and total degree at most dy in the
y's, with P(x, f_1(x)..f_s(x)) = 0 through the requested order. One row
builder gives the linear system over the monomial columns to the search and
to verify_relation. The search clears the rows to integers and solves them by
fraction-free Bareiss elimination and integer back-substitution; nullspace
vectors are normalized to content 1 with positive leading coefficient in a
graded monomial order with x below y_1 below ... below y_s.

A returned candidate annihilates the data up to verified_order; only that
much is claimed. An empty result is a proof of full column rank, i.e. no
relation exists within the given degree box at this truncation; that holds
for any system with at least as many rows as columns. Callers are refused
(OrderTooSmall) unless the system has more rows than columns plus a safety
margin. The margin guards the other way: a barely determined system can
return candidates that only the few rows it has satisfy, and find-relations
re-verifies each candidate at double the order to expose those.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .intpoly import _signed_sum
from .qcombinatorics import _check_ints
from .series import InsufficientTruncation

Number = Union[int, Fraction]
Monomial = tuple[int, ...]  # (i, a_1..a_s): x^i * y_1^a_1 ... y_s^a_s

#: Extra rows demanded beyond the column count before a search may run.
DEFAULT_MARGIN = 5


class OrderTooSmall(ValueError):
    """Too little data to determine the linear system."""


@dataclass(frozen=True)
class RelationCandidate:
    """A normalized integer polynomial annihilating the data to some order."""

    terms: tuple[tuple[Monomial, int], ...]  # ascending monomial order
    verified_order: int

    @property
    def num_series(self) -> int:
        return len(self.terms[0][0]) - 1 if self.terms else 0

    def to_json_dict(self) -> dict:
        return {
            "terms": [[list(mono), coeff] for mono, coeff in self.terms],
            "verified_order": self.verified_order,
        }

    def __str__(self) -> str:
        names = ["x"] + [f"y{j}" for j in range(1, self.num_series + 1)]
        return _signed_sum(
            (coeff, "*".join(v if a == 1 else f"{v}^{a}" for v, a in zip(names, mono) if a))
            for mono, coeff in reversed(self.terms)
        )


def _monomial_key(mono: Monomial) -> tuple:
    # graded, ties by exponents of the highest variable first (x is lowest)
    i, alpha = mono[0], mono[1:]
    return (i + sum(alpha), tuple(reversed(alpha)) + (i,))


def _monomials(num_series: int, dx: int, dy: int) -> list[Monomial]:
    alphas = [
        alpha
        for alpha in itertools.product(range(dy + 1), repeat=num_series)
        if sum(alpha) <= dy
    ]
    monos = [(i,) + alpha for i in range(dx + 1) for alpha in alphas]
    monos.sort(key=_monomial_key)
    return monos


def _truncated_product(u: Sequence[Number], v: Sequence[Number], order: int) -> list[Number]:
    out = [0] * (order + 1)
    for i, ui in enumerate(u):
        if i > order:
            break
        if ui:
            for j in range(min(len(v), order - i + 1)):
                if v[j]:
                    out[i + j] += ui * v[j]
    return out


def _power_products(
    series: Sequence[Sequence[Number]], dy: int, order: int
) -> dict[tuple[int, ...], list[Number]]:
    s = len(series)
    out: dict[tuple[int, ...], list[Number]] = {}
    unit = [1] + [0] * order
    out[(0,) * s] = unit
    by_degree = sorted(
        (
            alpha
            for alpha in itertools.product(range(dy + 1), repeat=s)
            if 0 < sum(alpha) <= dy
        ),
        key=lambda a: (sum(a), a),
    )
    for alpha in by_degree:
        j = next(idx for idx, a in enumerate(alpha) if a)
        prev = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
        out[alpha] = _truncated_product(out[prev], series[j], order)
    return out


def _clear_row(row: Sequence[Number]) -> list[int]:
    denom = 1
    for v in row:
        if isinstance(v, Fraction):
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    if denom == 1:
        return [int(v) for v in row]
    return [int(v * denom) for v in row]


def _bareiss_echelon(matrix: list[list[int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    prev = 1
    level = 0
    for col in range(n):
        if level >= m:
            break
        best = None
        for i in range(level, m):
            v = rows[i][col]
            if v:
                size = abs(v).bit_length()
                if best is None or size < best[0]:
                    best = (size, i)
        if best is None:
            continue
        _, pi = best
        rows[level], rows[pi] = rows[pi], rows[level]
        piv = rows[level][col]
        for i in range(level + 1, m):
            vi = rows[i][col]
            ri = rows[i]
            rl = rows[level]
            for j in range(col + 1, n):
                ri[j] = (piv * ri[j] - vi * rl[j]) // prev
            ri[col] = 0
        pivots.append((level, col))
        prev = piv
        level += 1
    return rows, pivots


def _nullspace_vector(
    rows: list[list[int]], pivots: list[tuple[int, int]], free_col: int, n: int
) -> list[int]:
    """Kernel vector zero beyond free_col, x[free_col] being the last pivot before it.

    Bareiss leaves that pivot as the pivot minor's determinant, so by Cramer's
    rule every entry is an integer minor and each division below is exact."""
    x = [0] * n
    before = [(r, c) for r, c in pivots if c < free_col]
    x[free_col] = rows[before[-1][0]][before[-1][1]] if before else 1
    for r, c in reversed(before):
        row = rows[r]
        x[c] = -sum(row[j] * x[j] for j in range(c + 1, free_col + 1)) // row[c]
    return x


def _normalize(vec: Sequence[int], monomials: list[Monomial]) -> tuple[tuple[Monomial, int], ...]:
    content = math.gcd(*vec)
    if vec[max(i for i, v in enumerate(vec) if v)] < 0:
        content = -content
    return tuple((monomials[i], v // content) for i, v in enumerate(vec) if v)


def _rows(
    powers: dict[tuple[int, ...], list[Number]], monomials: Sequence[Monomial], order: int
) -> list[list[Number]]:
    """Row r holds each monomial's coefficient of x^r, through `order`."""
    bases = [(mono[0], powers[mono[1:]]) for mono in monomials]
    return [[base[r - i] if r >= i else 0 for i, base in bases] for r in range(order + 1)]


def _validate_series(series: Sequence[Sequence[Number]], order: int, err: type) -> None:
    if not series:
        raise ValueError("at least one series is required")
    for idx, f in enumerate(series):
        if len(f) < order + 1:
            raise err(
                f"series {idx} has {len(f)} coefficients, needs {order + 1}"
            )


def find_relations(
    series: Sequence[Sequence[Number]],
    dx: int,
    dy: int,
    order: int,
    margin: int = DEFAULT_MARGIN,
) -> list[RelationCandidate]:
    """All independent relations in the degree box, exact through `order`.

    Returns one normalized candidate per nullspace dimension (each free
    column of the eliminated system), in a deterministic order. An empty list
    certifies full column rank. Raises OrderTooSmall if the data is too
    short for the order, or if order < ncols + margin, that is, if the
    system would have at most ncols + margin equations (order + 1 rows).
    """
    _check_ints(dx=(dx, 0), dy=(dy, 0), order=(order, 0), margin=(margin, 0))
    _validate_series(series, order, OrderTooSmall)
    ncols = (dx + 1) * math.comb(dy + len(series), len(series))
    if order < ncols + margin:
        raise OrderTooSmall(
            f"order {order} is too small for {ncols} columns "
            f"plus margin {margin}"
        )
    monomials = _monomials(len(series), dx, dy)
    rows = [_clear_row(row) for row in _rows(_power_products(series, dy, order), monomials, order)]
    rows, pivots = _bareiss_echelon(rows)
    pivot_cols = {c for _, c in pivots}
    out = []
    for free_col in range(ncols):
        if free_col in pivot_cols:
            continue
        vec = _nullspace_vector(rows, pivots, free_col, ncols)
        out.append(RelationCandidate(_normalize(vec, monomials), order))
    return out


def verify_relation(
    cand: RelationCandidate,
    series: Sequence[Sequence[Number]],
    order: int,
) -> bool:
    """Whether the candidate annihilates the sequences through `order`."""
    _check_ints(order=(order, 0))
    if not cand.terms:
        raise ValueError("empty candidate")
    if cand.num_series != len(series):
        raise ValueError(
            f"candidate is over {cand.num_series} series, got {len(series)}"
        )
    _validate_series(series, order, InsufficientTruncation)
    dy = max(sum(mono[1:]) for mono, _ in cand.terms)
    monomials, coeffs = zip(*cand.terms)
    rows = _rows(_power_products(series, dy, order), monomials, order)
    return all(sum(c * v for c, v in zip(coeffs, row)) == 0 for row in rows)
