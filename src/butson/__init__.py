"""Exact tools for Butson Hadamard matrices, bent vectors, and Z_k codes.

The top level exports the names the demos and the README use; every other
name is imported from its module (butson.cyclotomic, butson.matrices, ...).
"""

from .bent import check_bent, ksw_vector, search_bent, tensor_corollary_check
from .bush import (bush_circulant, bush_modify, bush_quaternary_bents, bush_real_order4,
                   verify_projector_algebra)
from .codes import (
    bent_lower_bound,
    code_from_matrix,
    covering_radius,
    leducq_upper_bound,
    min_distance,
    reed_muller_1,
    schmidt_rho,
)
from .fileio import parse_matrix, serialize_matrix
from .matrices import (
    LogVector,
    character_table,
    fourier_matrix,
    kronecker,
    sylvester_matrix,
    verify_hadamard,
)
from .numtheory import (
    bent_obstructions,
    circulant_real_obstruction,
    is_self_conjugate_prime,
    splitting_profile,
)

__all__ = [
    "LogVector",
    "bent_lower_bound",
    "bent_obstructions",
    "bush_circulant",
    "bush_modify",
    "bush_quaternary_bents",
    "bush_real_order4",
    "character_table",
    "check_bent",
    "circulant_real_obstruction",
    "code_from_matrix",
    "covering_radius",
    "fourier_matrix",
    "is_self_conjugate_prime",
    "kronecker",
    "ksw_vector",
    "leducq_upper_bound",
    "min_distance",
    "parse_matrix",
    "reed_muller_1",
    "schmidt_rho",
    "search_bent",
    "serialize_matrix",
    "splitting_profile",
    "sylvester_matrix",
    "tensor_corollary_check",
    "verify_hadamard",
    "verify_projector_algebra",
]
