"""Integral cohomology rings of complements of complex projective
subspace arrangements, computed exactly from rational input data."""

from .arrangement import (
    Arrangement,
    Hyperplane,
    InputError,
    generic_hyperplane,
    hyperplane_section,
    parse_arrangement,
)
from .linalg import Subspace, rref, snf, subspace_intersection
from .oracles import (
    compare,
    mobius,
    os_poincare_central,
    os_poincare_projective,
    projective_quotient,
    stratified_euler,
)
from .poset import (
    IntersectionPoset,
    build_poset,
    is_c_arrangement,
    minimal_dependent_sets,
    verify_eta,
)
from .presentation import (
    build_presentation,
    graded_ranks,
    pi_context,
    pi_image,
    verify_fg_homotopic,
    verify_fk_iso,
    verify_presentation,
)
from .ring import (
    affine_decompose,
    decompose,
    projective_ring,
    ring_table,
    verify_ring_axioms,
)

__all__ = [
    "Arrangement",
    "Hyperplane",
    "InputError",
    "IntersectionPoset",
    "Subspace",
    "affine_decompose",
    "build_poset",
    "build_presentation",
    "compare",
    "decompose",
    "generic_hyperplane",
    "graded_ranks",
    "hyperplane_section",
    "is_c_arrangement",
    "minimal_dependent_sets",
    "mobius",
    "os_poincare_central",
    "os_poincare_projective",
    "parse_arrangement",
    "pi_context",
    "pi_image",
    "projective_quotient",
    "projective_ring",
    "ring_table",
    "rref",
    "snf",
    "stratified_euler",
    "subspace_intersection",
    "verify_eta",
    "verify_fg_homotopic",
    "verify_fk_iso",
    "verify_presentation",
    "verify_ring_axioms",
]
