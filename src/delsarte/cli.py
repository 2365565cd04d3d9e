"""Command-line front end: surface analysis and family Picard counts.

Two commands.  ``analyze`` takes a surface description (a JSON file path,
an inline JSON object, or ``-`` for standard input) and runs the full
pipeline: validation, degeneracy check, reduction to minimal form, plane
model, singular locus (with its away orbit), trichotomy, and — for
genus-one fibrations with a Weierstrass reduction — discriminant, j, fiber
table and the gamma verdict.  ``picard`` enumerates the character lattice
of the double-cover family for given (p, a).

Output is a single JSON document on stdout with sorted keys; all numbers
are integers or exact "p/q" strings, so identical invocations are
byte-identical.  Exit codes: 2 for unreadable input or a command-line usage
error, 3 for invalid input, 4 for valid surfaces outside the supported
analysis shapes, 1 for a --verify mismatch (the oracle disagreeing with the
closed form).

Only the genus-one section and --verify load sympy; ``picard`` and the
integer stages of ``analyze`` run on the standard library alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

from .errors import NotConvertibleError, UnsupportedShapeError, ValidationError
from .exact import adjugate, rational_to_json
from .model import surface_from_json, surface_to_json
from .reduction import classify_degenerate, plane_model, reduce_to_minimal
from .shioda import (
    FamilyParams,
    enumerate_L0,
    excluded_fractions,
    exhaustive_sums,
    family_L0_count,
    gs_hodge_counts,
    lambda_membership,
    lefschetz_number,
    picard_family,
    shioda_vectors,
)
from .singular import (
    Isotrivial,
    SemistableAway,
    Superelliptic,
    classify_trichotomy,
    discriminant_oracle,
    oracle_matches_locus,
    singular_locus,
)


class VerificationError(Exception):
    """A --verify oracle disagreed with the formula it was checking."""


class UnreadableInputError(Exception):
    """The parser refused the surface text: bad syntax, or an integer or a
    nesting depth past Python's limits."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _locus_json(locus) -> dict:
    if locus.degenerate:
        return {"degenerate": True, "duplicate_index": locus.duplicate_index}
    return {
        "degenerate": False,
        "exponent": locus.exponent,
        "value": rational_to_json(locus.value),
        "rational_points": [rational_to_json(r) for r in locus.rational_points],
    }


def _trichotomy_json(trichotomy) -> dict:
    if isinstance(trichotomy, Isotrivial):
        return {
            "branch": trichotomy.branch,
            "duplicate_index": trichotomy.duplicate_index,
            "degeneration_value": rational_to_json(trichotomy.degeneration_value),
        }
    if isinstance(trichotomy, Superelliptic):
        form = trichotomy.form
        return {
            "branch": trichotomy.branch,
            "cover_exponent": form.cover_exponent,
            "normal_form": [
                {
                    "coefficient": rational_to_json(coeff),
                    "exponent": exponent,
                    "carries_t": carries,
                }
                for coeff, exponent, carries in form.terms
            ],
            "generic_genus": trichotomy.generic_genus,
            "constant_j": (
                None
                if trichotomy.constant_j is None
                else rational_to_json(trichotomy.constant_j)
            ),
        }
    assert isinstance(trichotomy, SemistableAway)
    return {"branch": trichotomy.branch, "locus": _locus_json(trichotomy.locus)}


def _fiber_json(place: str, fiber) -> dict:
    return {
        "place": place,
        "type": fiber.symbol,
        "n": fiber.n,
        "euler": fiber.euler,
        "conductor": fiber.conductor,
    }


def _verdict_json(verdict) -> dict:
    from .elliptic import BaseChangeOfGammaLessOne, ConstantJ

    if isinstance(verdict, ConstantJ):
        return {
            "kind": verdict.kind,
            "j": None if verdict.j_value is None else rational_to_json(verdict.j_value),
        }
    assert isinstance(verdict, BaseChangeOfGammaLessOne)
    return {
        "kind": verdict.kind,
        "gamma": rational_to_json(verdict.gamma),
        "base_change_exponent": verdict.base_change_exponent,
        "away_type": verdict.away_fiber.symbol,
        "at_zero": verdict.at_zero.symbol,
        "at_infinity": verdict.at_infinity.symbol,
    }


def _genus_one_json(minimal, trichotomy, locus) -> Optional[dict]:
    # the one stage of a plain analyze that needs sympy, so imported here
    from .elliptic import BaseChangeOfGammaLessOne, genus_one_section

    try:
        section = genus_one_section(minimal, trichotomy, locus)
    except NotConvertibleError:
        return None
    model, inv, verdict = section.model, section.invariants, section.verdict
    report = {
        "weierstrass": {
            name: str(getattr(model, name)) for name in ("a1", "a2", "a3", "a4", "a6")
        },
        "discriminant": str(inv.delta),
        "j": str(inv.j),
        "fibers": [
            _fiber_json("0", section.at_zero),
            _fiber_json(str(section.orbit.as_expr()), section.away),
            _fiber_json("infinity", section.at_infinity),
        ],
        "verdict": _verdict_json(verdict),
    }
    if isinstance(verdict, BaseChangeOfGammaLessOne):
        report["gamma"] = rational_to_json(verdict.gamma)
    return report


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _load_surface_source(source: str) -> dict:
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        path = Path(source)
        if not path.exists():
            raise FileNotFoundError(f"no such file: {source}")
        text = path.read_text()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UnreadableInputError(exc) from exc


def run_analyze(args) -> dict:
    surface = surface_from_json(_load_surface_source(args.surface))
    report: dict = {
        "input": surface_to_json(surface),
        "validation": {
            "degree": surface.degree,
            "determinant": rational_to_json(surface.determinant()),
        },
    }
    if surface.is_degenerate:
        verdict = classify_degenerate(surface)
        report["degeneracy"] = {
            "kind": verdict.kind,
            "direction": list(verdict.direction),
            "base_change_degree": verdict.base_change_degree,
        }
        return report
    report["degeneracy"] = {"kind": "nondegenerate"}

    minimal = reduce_to_minimal(surface)
    change = minimal.base_change
    report["minimal_form"] = {
        "equation": str(minimal.equation),
        "terms": [
            {"coefficient": rational_to_json(c), "exponents": list(exps)}
            for c, exps in minimal.equation.terms
        ],
        "carrier_index": minimal.carrier_index,
        "base_change": {
            "twist": list(change.twist),
            "inner_degree": change.inner_degree,
            "cleared_power": change.cleared_power,
            "degree": change.degree,
        },
    }

    plane = plane_model(minimal)
    report["plane_model"] = {
        "exponents": [list(row) for row in plane.exponents],
        "degree": plane.degree,
    }
    report["kernel"] = list(plane.kernel)

    locus = singular_locus(plane)
    report["singular_locus"] = _locus_json(locus)
    report["structure"] = {
        "exponent": locus.exponent,
        "value": rational_to_json(locus.value),
        "negation_invariant": locus.negation_invariant,
    }

    trichotomy = classify_trichotomy(minimal, plane, locus)
    report["trichotomy"] = _trichotomy_json(trichotomy)

    if isinstance(trichotomy, Superelliptic) and trichotomy.generic_genus == 1:
        section = _genus_one_json(minimal, trichotomy, locus)
        if section is not None:
            report["genus_one"] = section

    if args.shioda:
        lam = lefschetz_number(surface.adjugate)
        shioda_section: dict = {"lambda": lam}
        if args.h2 is not None:
            shioda_section["h2"] = args.h2
            shioda_section["rho"] = args.h2 - lam
        report["shioda"] = shioda_section

    if args.verify:
        report["verify"] = _verify_analysis(plane, locus)
    return report


def _verify_analysis(plane, locus) -> dict:
    if locus.degenerate:
        return {
            "oracle": "skipped",
            "reason": "duplicate moving monomial: closed form does not apply",
        }
    oracle = discriminant_oracle(plane)
    if not oracle_matches_locus(oracle, locus):
        raise VerificationError(
            f"discriminant oracle {oracle.as_expr()} does not match "
            f"t^{locus.exponent} = {locus.value}"
        )
    return {"oracle": "match", "polynomial": str(oracle.as_expr())}


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------


# the record's name for the L0 characters of each entry sum q = 1, 2, 3
HODGE_LEVELS = {1: "h20", 2: "h11prim", 3: "h02"}


def run_picard(args) -> dict:
    params = FamilyParams(args.p, args.a)
    excluded = excluded_fractions(params)
    rho_tilde = picard_family(params, excluded)
    count = family_L0_count(params)
    record = {
        "p": params.p,
        "a": params.a,
        "L0_count": count,
        "lambda": count - (rho_tilde - 2),
        "rho_tilde": rho_tilde,
        "rho": rho_tilde - 1,
    }
    if args.hodge:
        record.update(zip(HODGE_LEVELS.values(), gs_hodge_counts(params)))
    if args.excluded:
        record["excluded_fractions"] = [
            rational_to_json(q) for q in sorted(excluded)
        ]
    if args.verify:
        record["verify"] = _verify_picard(params, record)
    return record


def _verify_picard(params: FamilyParams, record: dict) -> dict:
    """Recount everything from the matrix route with the exhaustive scan.

    This enumerates all of L0, so it checks the slice count of
    ``picard_family`` as well as the early-exit scan on every member, and,
    when the record has them, the closed-form Hodge levels of
    ``gs_hodge_counts`` against the members' entry sums.
    """
    members = enumerate_L0(*shioda_vectors(adjugate(params.matrix)))
    if len(members) != record["L0_count"]:
        raise VerificationError(
            f"L0 size {len(members)} != direct count {record['L0_count']}"
        )
    lam = 0
    for vector in members:
        slow = any(s != 2 for s in exhaustive_sums(vector).values())
        if slow != lambda_membership(vector).in_lambda:
            raise VerificationError(f"scan disagreement at {vector}")
        lam += slow
    if lam != record["lambda"]:
        raise VerificationError(f"lambda {lam} != {record['lambda']}")
    if "h20" in record:
        levels = Counter(
            HODGE_LEVELS[sum(v.numerators) // v.modulus] for v in members
        )
        for name in HODGE_LEVELS.values():
            if levels[name] != record[name]:
                raise VerificationError(f"{name} {levels[name]} != {record[name]}")
    return {"status": "match", "vectors_checked": len(members)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delsarte",
        description="Exact analyzer for four-monomial surface fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="run the fibration pipeline on a surface description"
    )
    analyze.add_argument(
        "surface",
        help='surface JSON: a file path, an inline {"monomials": ...} object, '
        'or "-" for stdin',
    )
    analyze.add_argument(
        "--shioda",
        action="store_true",
        help="add the character-lattice section (Lefschetz number)",
    )
    analyze.add_argument(
        "--h2",
        type=int,
        default=None,
        help="second Betti-type input; with --shioda also reports rho = h2 - lambda",
    )

    picard = sub.add_parser(
        "picard", help="Picard number of the double-cover family member (p, a)"
    )
    picard.add_argument("--p", type=int, required=True, help="odd prime")
    picard.add_argument("--a", type=int, required=True, help="positive integer")
    picard.add_argument(
        "--hodge", action="store_true", help="add h20 / h11prim / h02 counts"
    )
    picard.add_argument(
        "--excluded",
        action="store_true",
        help="add the brute-forced set of out-of-Lambda j-fractions",
    )

    for command in (analyze, picard):
        command.add_argument(
            "--verify",
            action="store_true",
            help="recheck formula results against their brute-force oracles",
        )
        command.add_argument(
            "--json-indent",
            type=int,
            default=None,
            help="pretty-print the report with this indent",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            payload = run_analyze(args)
        else:
            payload = run_picard(args)
    except (UnreadableInputError, UnicodeDecodeError, OSError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 3
    except UnsupportedShapeError as exc:
        print(f"error: unsupported shape: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, sort_keys=True, indent=args.json_indent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
