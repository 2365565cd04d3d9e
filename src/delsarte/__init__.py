"""Exact-arithmetic analysis of four-monomial projective surfaces and the
elliptic or superelliptic fibrations they carry.

Importing the package loads no sympy: every stage of a plain ``analyze``
and of ``picard`` runs on the standard library.  Only the ``--verify``
elimination oracle of ``singular`` imports sympy, when it is called.
"""

from .analysis import Report, analyze
from .elliptic import gamma, genus_one_weierstrass, kodaira_type, weierstrass_invariants
from .errors import (
    DelsarteError,
    NotConvertibleError,
    UnsupportedShapeError,
    ValidationError,
)
from .model import surface_from_json, surface_to_json, validate_surface
from .reduction import classify_degenerate, plane_model, reduce_to_minimal
from .shioda import FamilyParams, lefschetz_number, picard_family
from .singular import classify_trichotomy, discriminant_oracle, singular_locus

__version__ = "0.1.0"

__all__ = [
    "DelsarteError",
    "FamilyParams",
    "NotConvertibleError",
    "Report",
    "UnsupportedShapeError",
    "ValidationError",
    "analyze",
    "classify_degenerate",
    "classify_trichotomy",
    "discriminant_oracle",
    "gamma",
    "genus_one_weierstrass",
    "kodaira_type",
    "lefschetz_number",
    "picard_family",
    "plane_model",
    "reduce_to_minimal",
    "singular_locus",
    "surface_from_json",
    "surface_to_json",
    "validate_surface",
    "weierstrass_invariants",
    "__version__",
]
