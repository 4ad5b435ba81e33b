"""Exact tools for Butson Hadamard matrices, bent vectors, and Z_k codes.

The top level exports the names the demos and the README use; every other
name is imported from its module (butson.cyclotomic, butson.matrices, ...).
An export is imported from its module on first access, so `import butson`
and `python -m butson` load numpy only once a command or a caller needs it.
"""

from importlib import import_module

_EXPORTS = {
    "LogVector": "matrices",
    "bent_lower_bound": "codes",
    "bent_obstructions": "numtheory",
    "bush_circulant": "bush",
    "bush_modify": "bush",
    "bush_quaternary_bents": "bush",
    "bush_real_order4": "bush",
    "character_table": "matrices",
    "check_bent": "bent",
    "circulant_bent_bridge": "bent",
    "circulant_real_obstruction": "numtheory",
    "code_from_matrix": "codes",
    "conjugate_self_bent_check": "bush",
    "covering_radius": "codes",
    "fourier_matrix": "matrices",
    "is_self_conjugate_prime": "numtheory",
    "kronecker": "matrices",
    "ksw_vector": "bent",
    "leducq_upper_bound": "codes",
    "min_distance": "codes",
    "parse_matrix": "fileio",
    "reed_muller_1": "codes",
    "schmidt_rho": "codes",
    "search_bent": "bent",
    "serialize_matrix": "fileio",
    "splitting_profile": "numtheory",
    "sylvester_matrix": "matrices",
    "tensor_bent": "bent",
    "tensor_corollary_check": "bent",
    "verify_hadamard": "matrices",
    "verify_projector_algebra": "bush",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
