"""Exact homological calculator for a family of 4-dimensional Lie algebras
carrying an Engel-type flag, together with the weighted chain complexes of
the graded superalgebras built from multivectors and forms."""

from .exact import (
    ParamPolynomial,
    TensorMatrix,
    SymbolicGeneric,
    Randomized,
    Specialized,
    MissingParameter,
    DegenerateDenominator,
    matrix_rank,
    kernel_basis,
    parse_fraction,
    parse_polynomial,
)

__all__ = [
    "ParamPolynomial",
    "TensorMatrix",
    "SymbolicGeneric",
    "Randomized",
    "Specialized",
    "MissingParameter",
    "DegenerateDenominator",
    "matrix_rank",
    "kernel_basis",
    "parse_fraction",
    "parse_polynomial",
]
