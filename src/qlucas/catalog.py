"""Built-in ratio specs and coefficient sequences for the CLI and tests.

Spec names accepted by the CLI (and by tests) are parsed here so that the
common families need no JSON file: "central" and "central:r" for the r-fold
central binomial ratio, "apery" for the two-variable ratio behind the Apery
numbers, "binom" / "binom:r" for the two-variable binomial ratio, and
"inverse-central" for the classic non-integral inverse. Sequence names cover
the central binomial powers g1, g2, ..., the Apery numbers of both kinds,
factorials, and the geometric series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

from .qcombinatorics import RatioSpec, q_binomial

Number = Union[int, Fraction]


def central_binomial_spec(r: int = 1) -> RatioSpec:
    """(2n)!^r / n!^(2r) as a one-variable ratio spec."""
    if r < 1:
        raise ValueError("power must be >= 1")
    return RatioSpec(1, ((2,),) * r, ((1,),) * (2 * r))


def inverse_central_spec() -> RatioSpec:
    """n!^2 / (2n)!, the standard non-integral example."""
    return RatioSpec(1, ((1,), (1,)), ((2,),))


def apery_spec() -> RatioSpec:
    """(2n1+n2)! (n1+n2)! / (n1!^3 n2!^2) over two variables."""
    return RatioSpec(2, ((2, 1), (1, 1)), ((1, 0), (1, 0), (1, 0), (0, 1), (0, 1)))


def apery_family_spec(family: str) -> RatioSpec:
    """The summand ratio at (k, n - k) of the Apery-type sum of kind 'a' or 'b'.

    Kind 'a' is apery_spec; kind 'b' is (2n1+n2)!^2 / (n1!^4 n2!^2).
    """
    if family == "a":
        return apery_spec()
    if family == "b":
        return RatioSpec(2, ((2, 1), (2, 1)), ((1, 0),) * 4 + ((0, 1),) * 2)
    raise ValueError("family must be 'a' or 'b'")


def binomial_spec(r: int = 1) -> RatioSpec:
    """(n1+n2)!^r / (n1!^r n2!^r) over two variables."""
    if r < 1:
        raise ValueError("power must be >= 1")
    return RatioSpec(2, ((1, 1),) * r, ((1, 0),) * r + ((0, 1),) * r)


def builtin_spec(name: str) -> RatioSpec:
    """Parse a built-in spec name, with an optional ':r' power suffix."""
    base, _, power = name.partition(":")
    r = 1
    if power:
        try:
            r = int(power)
        except ValueError:
            raise ValueError(f"bad power suffix in spec name {name!r}") from None
    builders: dict[str, Callable[[], RatioSpec]] = {
        "central": lambda: central_binomial_spec(r),
        "binom": lambda: binomial_spec(r),
        "apery": apery_spec,
        "inverse-central": inverse_central_spec,
    }
    if base not in builders:
        raise ValueError(f"unknown built-in spec {name!r}")
    if base in ("apery", "inverse-central") and power:
        raise ValueError(f"spec {base!r} takes no power suffix")
    return builders[base]()


# -- coefficient sequences ------------------------------------------------------


def central_power_sequence(r: int, order: int) -> list[int]:
    """binomial(2n, n)^r for n = 0..order."""
    return [math.comb(2 * n, n) ** r for n in range(order + 1)]


def gaussian_central_sequence(r: int, order: int, qval: Number) -> list[Number]:
    """q-binomial(2n, n)^r evaluated at a fixed rational q, n = 0..order."""
    return [q_binomial(2 * n, n).evaluate(qval) ** r for n in range(order + 1)]


def apery_number_sequence(family: str, order: int) -> list[int]:
    """The q = 1 Apery-type numbers of kind 'a' or 'b', n = 0..order."""
    if family not in ("a", "b"):
        raise ValueError("family must be 'a' or 'b'")
    out = []
    for n in range(order + 1):
        total = 0
        for k in range(n + 1):
            term = math.comb(n, k) ** 2 * math.comb(n + k, k)
            if family == "b":
                term *= math.comb(n + k, k)
            total += term
        out.append(total)
    return out


def factorial_sequence(order: int) -> list[int]:
    return [math.factorial(n) for n in range(order + 1)]


def geometric_sequence(order: int) -> list[int]:
    return [1] * (order + 1)


def builtin_sequence(name: str, order: int, qval: Number = 1) -> list[Number]:
    """Parse a built-in sequence name to a coefficient list of length order+1.

    Names: g1, g2, ... (central binomial powers at q = 1), f1, f2, ...
    (q-binomial central powers at the given q), apery-a, apery-b, factorial,
    geometric.
    """
    if name == "factorial":
        return factorial_sequence(order)
    if name == "geometric":
        return geometric_sequence(order)
    if name in ("apery-a", "apery-b"):
        return apery_number_sequence(name[-1], order)
    kind, digits = name[:1], name[1:]
    if kind in ("g", "f") and digits.isdigit() and int(digits) >= 1:
        r = int(digits)
        if kind == "g":
            return central_power_sequence(r, order)
        return gaussian_central_sequence(r, order, qval)
    raise ValueError(f"unknown built-in sequence {name!r}")
