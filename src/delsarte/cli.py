"""Command-line front end: surface analysis and family Picard counts.

Two commands.  ``analyze`` takes a surface description (a JSON file path,
an inline JSON object, or ``-`` for standard input), runs
``delsarte.analyze`` on it and serializes the ``Report``: validation,
degeneracy check, minimal form, plane model, singular locus (with its away
orbit), trichotomy, and -- for genus-one fibrations with a Weierstrass
reduction -- discriminant, j, fiber table and the gamma verdict.
``picard`` serializes ``shioda.family_report`` for the member (p, a) of the
double-cover family: its Picard numbers, Lefschetz number and, on request,
Hodge levels, excluded fractions and matrix-route recount.

Output is a single JSON document on stdout with sorted keys; all numbers
are integers or exact "p/q" strings, so identical invocations are
byte-identical.  Exit codes: 2 for unreadable input, a closed stdout or a
command-line usage error (a --json-indent outside 0..16 among them), 3 for
invalid input (``ValidationError``, a size past its bound included), 1 for
a --verify mismatch (``VerificationError``, the oracle disagreeing with the
closed form).  A genus-one cover that is not a double cover, such as a
cube cover, exits 0 with no genus-one section.

The module imports only the standard library and ``errors``: each command
imports the stage modules it runs when it is dispatched, so that a fresh
process compiles no module its command does not need.  ``analyze`` loads
``analysis`` (with ``model``, ``reduction`` and ``singular``), ``elliptic``
only for a genus-one section, ``shioda`` only under --shioda and ``oracle``
only under --verify; ``picard`` loads ``shioda``, and ``exact`` only under
--excluded or --verify.  Every command runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import ValidationError, VerificationError


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
        "value": exact.rational_to_json(locus.value),
        "rational_points": [exact.rational_to_json(r) for r in locus.rational_points],
    }


def _trichotomy_json(trichotomy) -> dict:
    if trichotomy.branch == "isotrivial":
        return {
            "branch": trichotomy.branch,
            "duplicate_index": trichotomy.duplicate_index,
            "degeneration_value": exact.rational_to_json(trichotomy.degeneration_value),
        }
    if trichotomy.branch == "superelliptic":
        form = trichotomy.form
        return {
            "branch": trichotomy.branch,
            "cover_exponent": form.cover_exponent,
            "normal_form": [
                {
                    "coefficient": exact.rational_to_json(coeff),
                    "exponent": exponent,
                    "carries_t": carries,
                }
                for coeff, exponent, carries in form.terms
            ],
            "generic_genus": trichotomy.generic_genus,
            "constant_j": (
                None
                if trichotomy.constant_j is None
                else exact.rational_to_json(trichotomy.constant_j)
            ),
        }
    return {"branch": trichotomy.branch, "locus": _locus_json(trichotomy.locus)}


def _fiber_json(place: str, fiber) -> dict:
    return {
        "place": place,
        "type": fiber.symbol,
        "n": fiber.n,
        "euler": fiber.euler,
        "conductor": fiber.conductor,
    }


def _verdict_json(section) -> dict:
    return {
        "kind": "base_change_gamma_lt_one",
        "gamma": exact.rational_to_json(section.gamma),
        "base_change_exponent": section.base_change_exponent,
        "away_type": section.away.symbol,
        "at_zero": section.at_zero.symbol,
        "at_infinity": section.at_infinity.symbol,
    }


def _genus_one_json(section) -> dict:
    model = section.model
    return {
        "weierstrass": {
            "a1": "0",  # the model is short: y^2 = x^3 + a2 x^2 + a4 x + a6
            "a3": "0",
            **{
                name: exact.format_polynomial(getattr(model, name))
                for name in ("a2", "a4", "a6")
            },
        },
        "discriminant": exact.format_polynomial(section.invariants.delta),
        "j": exact.format_quotient(*section.j),
        "fibers": [
            _fiber_json("0", section.at_zero),
            _fiber_json(exact.format_polynomial(section.orbit), section.away),
            _fiber_json("infinity", section.at_infinity),
        ],
        "verdict": _verdict_json(section),
        "gamma": exact.rational_to_json(section.gamma),
    }


def _verify_json(oracle) -> dict:
    if oracle is None:
        return {
            "oracle": "skipped",
            "reason": "duplicate moving monomial: closed form does not apply",
        }
    return {"oracle": "match", "polynomial": exact.format_polynomial(oracle)}


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
    global exact  # the serializers above print through exact
    from . import exact
    from .analysis import analyze
    from .model import surface_from_json, surface_to_json

    surface = surface_from_json(_load_surface_source(args.surface))
    result = analyze(surface, verify=args.verify, shioda=args.shioda, h2=args.h2)
    report: dict = {
        "input": surface_to_json(surface),
        "validation": {
            "degree": surface.degree,
            "determinant": exact.rational_to_json(surface.determinant()),
        },
    }
    if result.degeneracy is not None:
        verdict = result.degeneracy
        report["degeneracy"] = {
            "kind": verdict.kind,
            "direction": list(verdict.direction),
            "base_change_degree": verdict.base_change_degree,
        }
        return report
    report["degeneracy"] = {"kind": "nondegenerate"}

    minimal, plane, locus = result.minimal, result.plane, result.locus
    change = minimal.base_change
    report["minimal_form"] = {
        "equation": str(minimal.equation),
        "terms": [
            {"coefficient": exact.rational_to_json(c), "exponents": list(exps)}
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
    report["plane_model"] = {
        "exponents": [list(row) for row in plane.exponents],
        "degree": plane.degree,
    }
    report["kernel"] = list(plane.kernel)
    report["singular_locus"] = _locus_json(locus)
    report["structure"] = {
        "exponent": locus.exponent,
        "value": exact.rational_to_json(locus.value),
        "negation_invariant": locus.negation_invariant,
    }
    report["trichotomy"] = _trichotomy_json(result.trichotomy)
    if result.genus_one is not None:
        report["genus_one"] = _genus_one_json(result.genus_one)
    if args.shioda:
        shioda_section: dict = {"lambda": result.lefschetz}
        if result.rho is not None:
            shioda_section["h2"] = args.h2
            shioda_section["rho"] = result.rho
        report["shioda"] = shioda_section
    if args.verify:
        report["verify"] = _verify_json(result.oracle)
    return report


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------


def run_picard(args) -> dict:
    from .shioda import HODGE_LEVELS, FamilyParams, family_report

    params = FamilyParams(args.p, args.a)
    family = family_report(params, hodge=args.hodge, verify=args.verify)
    record = {
        "p": params.p,
        "a": params.a,
        "L0_count": family.L0_count,
        "lambda": family.lefschetz,
        "rho_tilde": family.rho_tilde,
        "rho": family.rho,
    }
    if family.hodge is not None:
        record.update(zip(HODGE_LEVELS.values(), family.hodge))
    if args.excluded:
        from .exact import rational_to_json

        record["excluded_fractions"] = [rational_to_json(q) for q in family.excluded]
    if family.vectors_checked is not None:
        checked = family.vectors_checked
        record["verify"] = {"status": "match", "vectors_checked": checked}
    return record


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # parse_args returns a fresh Namespace, so one parser serves
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
        help="second Betti number; needs --shioda, and reports rho = h2 - lambda",
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
        help="add the sieved set of out-of-Lambda j-fractions",
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
            # json.dumps writes this many spaces per nesting level
            choices=range(17),
            metavar="JSON_INDENT",
            default=None,
            help="pretty-print the report with this indent",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.h2 is not None and not args.shioda:
        parser.error("--h2 needs --shioda")  # exits 2
    try:
        if args.command == "analyze":
            payload = run_analyze(args)
        else:
            payload = run_picard(args)
        print(json.dumps(payload, sort_keys=True, indent=args.json_indent))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return 2
    except (UnreadableInputError, UnicodeDecodeError, OSError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
