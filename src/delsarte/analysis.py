"""One call from a surface to everything ``delsarte analyze`` reports.

``analyze`` runs the stages in order: the degeneracy check, the reduction
to minimal form, the plane model, the singular locus, the trichotomy, the
genus-one section, the Lefschetz number, the elimination oracle and the
Picard number rho = h2 - lambda.  It computes each quantity once and returns
them together as a ``Report``; a degenerate surface stops after its
degeneracy verdict.  The genus-one
section runs on a genus-one cyclic cover u^a = psi(v) with a = 2, where psi
cleared of its even power of v is always a cubic or a quartic; covers with
a = 3 or 4 get none.  No stage error is caught.  The integer stages
of ``reduction`` and ``singular`` are imported with this module; ``elliptic``
is imported only when a genus-one section runs, ``shioda`` only under
``shioda=True`` and the elimination ``oracle`` only under ``verify``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ValidationError, VerificationError
from .exact import format_polynomial
from .model import DelsarteSurface
from .reduction import (
    DegenerateVerdict,
    MinimalFibration,
    PlaneModel,
    classify_degenerate,
    plane_model,
    reduce_to_minimal,
)
from .singular import (
    SingularLocus,
    Superelliptic,
    Trichotomy,
    classify_trichotomy,
    singular_locus,
)

if TYPE_CHECKING:
    from .elliptic import GenusOneSection
    from .exact import QPoly


class Report(NamedTuple):
    """The analysis of one surface.

    A degenerate surface has its ``degeneracy`` verdict and nothing else; a
    nondegenerate one has ``degeneracy`` None and every stage from
    ``minimal`` to ``trichotomy``.  ``genus_one`` is set for a genus-one
    double cover (cover exponent 2), ``lefschetz`` when ``shioda`` asked for
    it, ``rho`` when ``h2`` was given as well, and ``oracle`` when
    ``verify`` asked for it and the locus is not degenerate (the closed form
    it checks does not apply there).
    """

    surface: DelsarteSurface
    degeneracy: Optional[DegenerateVerdict] = None
    minimal: Optional[MinimalFibration] = None
    plane: Optional[PlaneModel] = None
    locus: Optional[SingularLocus] = None
    trichotomy: Optional[Trichotomy] = None
    genus_one: Optional[GenusOneSection] = None
    lefschetz: Optional[int] = None
    oracle: Optional[QPoly] = None
    rho: Optional[int] = None


def analyze(
    surface: DelsarteSurface,
    *,
    verify: bool = False,
    shioda: bool = False,
    h2: Optional[int] = None,
) -> Report:
    """The ``Report`` of ``surface``.  ``shioda`` adds the Lefschetz number,
    and with ``h2`` (ignored without ``shioda``) the Picard number rho =
    h2 - lambda, raising ValidationError when rho < 1; ``verify`` rechecks
    the closed-form locus against the elimination oracle and raises
    VerificationError when they disagree, before rho is checked."""
    if surface.is_degenerate:
        return Report(surface, degeneracy=classify_degenerate(surface))
    minimal = reduce_to_minimal(surface)
    plane = plane_model(minimal)
    locus = singular_locus(plane)
    trichotomy = classify_trichotomy(plane, locus)
    genus_one = lefschetz = rho = None
    if (
        isinstance(trichotomy, Superelliptic)
        and trichotomy.generic_genus == 1
        and trichotomy.form.cover_exponent == 2
    ):
        from .elliptic import genus_one_section

        genus_one = genus_one_section(trichotomy, locus)
    if shioda:
        from .shioda import lefschetz_number

        lefschetz = lefschetz_number(surface.adjugate)
    oracle = _verify_analysis(plane, locus) if verify else None
    if shioda and h2 is not None:
        rho = h2 - lefschetz
        if rho < 1:  # a projective surface carries an ample class
            raise ValidationError(
                f"--h2 {h2} gives rho = {rho}; every projective surface has rho >= 1"
            )
    return Report(
        surface,
        minimal=minimal,
        plane=plane,
        locus=locus,
        trichotomy=trichotomy,
        genus_one=genus_one,
        lefschetz=lefschetz,
        oracle=oracle,
        rho=rho,
    )


def _verify_analysis(plane: PlaneModel, locus: SingularLocus):
    """The oracle polynomial, checked against the closed-form locus; None
    for a degenerate locus, where the closed form does not apply."""
    if locus.degenerate:
        return None
    from .oracle import discriminant_oracle, oracle_matches_locus

    oracle = discriminant_oracle(plane)
    if not oracle_matches_locus(oracle, locus):
        raise VerificationError(
            f"discriminant oracle {format_polynomial(oracle)} does not match "
            f"t^{locus.exponent} = {locus.value}"
        )
    return oracle
