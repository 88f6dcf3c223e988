"""Exact-arithmetic toolkit for the lonely runner problem.

Computes the gap function delta(S) by finite candidate enumeration, checks
the conjecture's diophantine, view-obstruction, billiard and finite-field
formulations on bounded instances, and emits verifiable certificates plus
figure renderings.
"""

from .arith import (
    QuadExt,
    SpeedSet,
    is_prime,
    next_prime_not_dividing,
    torus_norm,
)
from .billiards import (
    SquarePath,
    TriangleCell,
    TriangleHit,
    TrianglePath,
    square_min_obstacle,
    square_obstacle_contact,
    square_path_segments,
    triangle_cell,
    triangle_min_obstacle,
    triangle_obstruction_check,
    triangle_path_segments,
)
from .fieldsearch import (
    BandWitness,
    PrimeBudgetExhausted,
    SubsetCertificate,
    conj34_witness,
    invisible_subset,
    residue_matrix_scan,
)
from .gap import (
    GapCertificate,
    LonelyReport,
    LrcSweepReport,
    check_kappa_bounds,
    exact_gap,
    gap_grid_oracle,
    lonely_time,
    verify_lrc,
)
from .render import render_svg
from .viewobstruct import (
    KPrimeScanReport,
    kprime_scan,
    min_scale_for_direction,
    obstruction_witness,
    primitive_direction,
)

__version__ = "0.1.0"

__all__ = [
    "QuadExt",
    "SpeedSet",
    "is_prime",
    "next_prime_not_dividing",
    "torus_norm",
    "GapCertificate",
    "LonelyReport",
    "LrcSweepReport",
    "check_kappa_bounds",
    "exact_gap",
    "gap_grid_oracle",
    "lonely_time",
    "verify_lrc",
    "BandWitness",
    "PrimeBudgetExhausted",
    "SubsetCertificate",
    "conj34_witness",
    "invisible_subset",
    "residue_matrix_scan",
    "KPrimeScanReport",
    "kprime_scan",
    "min_scale_for_direction",
    "obstruction_witness",
    "primitive_direction",
    "SquarePath",
    "TriangleCell",
    "TriangleHit",
    "TrianglePath",
    "square_min_obstacle",
    "square_obstacle_contact",
    "square_path_segments",
    "triangle_cell",
    "triangle_min_obstacle",
    "triangle_obstruction_check",
    "triangle_path_segments",
    "render_svg",
    "__version__",
]
