"""Exact q-factorial ratio arithmetic, congruence sweeps, and relation search.

The package computes multidimensional q-factorial ratios as honest integer
polynomials, decides their integrality through the floor-sum step function,
verifies Lucas-type congruences modulo cyclotomic polynomials, manipulates
the associated truncated generating series, and searches for algebraic
relations among coefficient sequences with fraction-free linear algebra.
"""

from . import catalog
from .congruence import (
    CongruenceFailure,
    CongruenceReport,
    HypothesisViolated,
    apery_polynomial,
    verify_apery,
    verify_inter2_identity,
    verify_plucas_at_one,
    verify_ratio_congruence,
)
from .intpoly import (
    IntPolynomial,
    NotDivisible,
    cyclotomic,
    reduce_mod_cyclotomic,
)
from .landau import (
    DEFAULT_BUDGET,
    CellSignature,
    DimensionTooLarge,
    LandauReport,
    RationalPoint,
    SearchCounts,
    check_landau,
    delta_at,
    enumerate_cells,
    in_domain_D,
    signature_at,
)
from .qcombinatorics import (
    NegativeExponent,
    RatioSpec,
    iter_box,
    q_binomial,
    q_ratio,
    q_ratio_at_one,
    q_ratio_box,
    q_ratio_cyclotomic,
    q_ratio_mod,
    ratio_degree,
)
from .relations import (
    DEFAULT_MARGIN,
    OrderTooSmall,
    RelationCandidate,
    find_relations,
    verify_relation,
)
from .series import (
    InsufficientTruncation,
    LdReport,
    NotPrime,
    TruncatedSeries,
    build_F,
    extract_cofactor,
    specialize,
    verify_definition_Ld,
)

__version__ = "0.1.0"

__all__ = [
    "CellSignature",
    "CongruenceFailure",
    "CongruenceReport",
    "DEFAULT_BUDGET",
    "DEFAULT_MARGIN",
    "DimensionTooLarge",
    "HypothesisViolated",
    "InsufficientTruncation",
    "IntPolynomial",
    "LandauReport",
    "LdReport",
    "NegativeExponent",
    "NotDivisible",
    "NotPrime",
    "OrderTooSmall",
    "RatioSpec",
    "RationalPoint",
    "RelationCandidate",
    "SearchCounts",
    "TruncatedSeries",
    "apery_polynomial",
    "build_F",
    "catalog",
    "check_landau",
    "cyclotomic",
    "delta_at",
    "enumerate_cells",
    "extract_cofactor",
    "find_relations",
    "in_domain_D",
    "iter_box",
    "q_binomial",
    "q_ratio",
    "q_ratio_at_one",
    "q_ratio_box",
    "q_ratio_cyclotomic",
    "q_ratio_mod",
    "ratio_degree",
    "reduce_mod_cyclotomic",
    "signature_at",
    "specialize",
    "verify_apery",
    "verify_definition_Ld",
    "verify_inter2_identity",
    "verify_plucas_at_one",
    "verify_ratio_congruence",
    "verify_relation",
]
