"""Exact invariants of two-stage homotopy types and their moduli spaces."""

from twostage.abelian import AbHom, FgAbGroup, ext_group, hom_group
from twostage.cohomology import (
    bar_complex,
    cohomology_range,
    derivations,
    oracle_cohomology,
)
from twostage.errors import (
    InputFormatError,
    InternalConsistencyError,
    SizeBoundError,
    TwoStageError,
    ValidationError,
)
from twostage.groups import FiniteGroup, GModule
from twostage.linalg import IntMatrix, smith_normal_form
from twostage.moduli import ModuliReport, moduli_case_a, moduli_case_b
from twostage.pialgebra import (
    QuadraticMap,
    TwoStageDim1N,
    TwoStageDimNN1,
    act_on_kinvariants,
    pi_aut,
)

__version__ = "0.1.0"

__all__ = [
    "AbHom",
    "FgAbGroup",
    "FiniteGroup",
    "GModule",
    "InputFormatError",
    "IntMatrix",
    "InternalConsistencyError",
    "ModuliReport",
    "QuadraticMap",
    "SizeBoundError",
    "TwoStageDim1N",
    "TwoStageDimNN1",
    "TwoStageError",
    "ValidationError",
    "act_on_kinvariants",
    "bar_complex",
    "cohomology_range",
    "derivations",
    "ext_group",
    "hom_group",
    "moduli_case_a",
    "moduli_case_b",
    "oracle_cohomology",
    "pi_aut",
    "smith_normal_form",
]
