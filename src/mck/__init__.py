"""Leveled Morse graphs on the sphere and their handle complexes."""

from .permutohedron import (
    OrderedPartition, enumerate_partitions, refines_eq, sub_blocks,
    induced_face_automorphism,
)
from .morse_graph import (
    Atom, Cap, LMG, validate, canonical_form, decode_canonical,
    canonicalize, to_doc, to_json, from_json, to_dot, mirror, dual,
)
from .perturbation import split_level, delta
from .twist_algebra import (
    HomologyModel, CircleClassification, UPolytope, homology_model,
    classify_circles, u_polytope, check_stab_action, double_factorial_bound,
)
from .complex_builder import (
    MarkingSpec, HandleRecord, ComplexK, enumerate_top_classes,
    build_complex, euler_characteristic, q_polynomial, morse_smale_report,
    complex_dimension, complex_rank, betti0,
)

__all__ = [name for name in dir() if not name.startswith("_")]
