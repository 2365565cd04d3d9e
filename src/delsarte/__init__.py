"""Exact-arithmetic analysis of four-monomial projective surfaces and the
elliptic or superelliptic fibrations they carry.

The public names below are resolved on first access (PEP 562): importing
the package loads none of its stage modules, and each name loads only the
module that defines it.  Every stage, the ``--verify`` elimination oracle
included, runs on the standard library alone; sympy serves only the tests,
as a second implementation to check against.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule that defines it, in the order of __all__
_EXPORTS = {
    "DelsarteError": "errors",
    "FamilyParams": "shioda",
    "FamilyReport": "shioda",
    "Report": "analysis",
    "ValidationError": "errors",
    "analyze": "analysis",
    "classify_degenerate": "reduction",
    "classify_trichotomy": "singular",
    "discriminant_oracle": "oracle",
    "family_report": "shioda",
    "gamma": "elliptic",
    "genus_one_weierstrass": "elliptic",
    "kodaira_type": "elliptic",
    "lefschetz_number": "shioda",
    "plane_model": "reduction",
    "reduce_to_minimal": "reduction",
    "singular_locus": "singular",
    "surface_from_json": "model",
    "surface_to_json": "model",
    "validate_surface": "model",
    "weierstrass_invariants": "elliptic",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
