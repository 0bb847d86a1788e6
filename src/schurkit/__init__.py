"""Exact Littlewood-Richardson coefficients, Schur plethysm, and positivity
pruning filters.

All arithmetic is exact integer arithmetic; diagrams follow the French
convention with points given as (column, row), both 0-indexed from the
bottom left.
"""

from .partitions import (
    InfiniteRegionError,
    Partition,
    Point,
    all_partitions,
    ideal_complement,
    minkowski_sum,
    outer_corners,
    partitions_of,
)
from .positivity import (
    BoundPair,
    enumerate_candidates,
    lr_bound,
    plethysm_filter_check,
    size_row_bound,
    sxp_lower_check,
    sxp_upper_bound,
    trivial_sign_multiplicity,
)
from .quotients import (
    NonEmptyCoreError,
    NotACoreError,
    QuotientDecomposition,
    decompose,
    reconstruct,
    sxp_sign,
)
from .schur import (
    NonIntegralResultError,
    SchurExpansion,
    character,
    lr_coefficient,
    multi_schur_product,
    schur_plethysm,
    schur_product,
    sxp_plethysm,
    z_of,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPair",
    "InfiniteRegionError",
    "NonEmptyCoreError",
    "NonIntegralResultError",
    "NotACoreError",
    "Partition",
    "Point",
    "QuotientDecomposition",
    "SchurExpansion",
    "all_partitions",
    "character",
    "decompose",
    "enumerate_candidates",
    "ideal_complement",
    "lr_bound",
    "lr_coefficient",
    "minkowski_sum",
    "multi_schur_product",
    "outer_corners",
    "partitions_of",
    "plethysm_filter_check",
    "reconstruct",
    "schur_plethysm",
    "schur_product",
    "size_row_bound",
    "sxp_lower_check",
    "sxp_plethysm",
    "sxp_sign",
    "sxp_upper_bound",
    "trivial_sign_multiplicity",
    "z_of",
]
