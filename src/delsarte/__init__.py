"""Exact-arithmetic analysis of four-monomial projective surfaces and the
elliptic or superelliptic fibrations they carry.

The public names below are resolved on first access (PEP 562), so that
importing the package, or a stage that needs only integer arithmetic, does
not load sympy.  Importing ``elliptic`` loads it; the symbolic functions of
``singular`` load it when they are called.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "Report": "analysis",
    "analyze": "analysis",
    "gamma": "elliptic",
    "genus_one_weierstrass": "elliptic",
    "kodaira_type": "elliptic",
    "weierstrass_invariants": "elliptic",
    "DelsarteError": "errors",
    "NotConvertibleError": "errors",
    "UnsupportedShapeError": "errors",
    "ValidationError": "errors",
    "surface_from_json": "model",
    "surface_to_json": "model",
    "validate_surface": "model",
    "classify_degenerate": "reduction",
    "plane_model": "reduction",
    "reduce_to_minimal": "reduction",
    "FamilyParams": "shioda",
    "lefschetz_number": "shioda",
    "picard_family": "shioda",
    "classify_trichotomy": "singular",
    "discriminant_oracle": "singular",
    "singular_locus": "singular",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
