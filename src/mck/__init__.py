"""Leveled Morse graphs on the sphere and their handle complexes."""

from .permutohedron import enumerate_partitions, sub_blocks
from .morse_graph import (
    Atom, Cap, LMG, Skeleton, SkeletonTable, validate, canonical_form,
    decode_canonical, canonicalize, canonicalize_mirror, canonical_skeleton,
    form_bytes, automorphisms, to_json, from_json,
    mirror, dual,
)
from .perturbation import split_level, delta
from .twist_algebra import (
    HomologyModel, homology_model,
    classify_circles, u_polytope, check_stab_action, double_factorial_bound,
)
from .complex_builder import (
    MarkingSpec, HandleRecord, ComplexK, enumerate_top_classes,
    build_complex, euler_characteristic, q_polynomial, morse_smale_report,
    complex_dimension, complex_rank, betti0,
)

__all__ = [name for name in dir() if not name.startswith("_")]
