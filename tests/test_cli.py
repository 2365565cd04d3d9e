"""End-to-end tests of the command-line interface.

Most tests call ``main(argv)`` directly and read stdout through capsys;
subprocess tests check the ``python -m`` entry point for real and the pinned
stdout of ``analyze`` under ``python -O``. The contract
under test: a single sorted-key JSON document on stdout, byte-identical
across runs, and the exit-code mapping (0 ok, 1 verify mismatch, 2 unreadable
input, closed output or usage error, 3 invalid input).
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from calls import count_calls
from corpus import (
    deterministic_corpus,
    surface_from_affine_triples,
    uniform_rows,
    y_squared_triples,
)
from delsarte import analysis, cli, oracle, shioda
from digest import run_quietly
from delsarte.errors import ValidationError
from delsarte.exact import adjugate, rational_to_json
from delsarte.model import surface_from_json, validate_surface

CUBIC_WITH_SECTION = '{"monomials": [[0,2,0,1],[3,0,0,0],[2,0,0,1],[0,0,1,2]]}'
# x y^2 + x^3 + x^2 + t: no direct y^2 shape, a double cover after straightening
ODD_ORDER_QUARTIC = '{"monomials": [[1,2,0,0],[3,0,0,0],[2,0,0,1],[0,0,1,2]]}'
DEGENERATE = '{"monomials": [[2,0,0,0],[0,2,0,0],[1,1,0,0],[0,0,2,0]]}'
ISOTRIVIAL = '{"monomials": [[5,0,0,0],[0,5,0,0],[0,4,0,1],[0,4,1,0]]}'
# x y^2 + x^3 y + y + x t: every kernel entry nonzero
SEMISTABLE = '{"monomials": [[1,2,0,1],[3,1,0,0],[0,1,0,3],[1,0,1,2]]}'
# y^3 + x^3 + x + t: a genus-one cube cover, which has no Weierstrass section
CUBE_COVER = '{"monomials": [[0,3,0,0],[3,0,0,0],[1,0,0,2],[0,0,1,2]]}'
# y + y^3 + x*y^2 + t: superelliptic with a = 1, rational generic fiber
GENUS_ZERO = '{"monomials": [[0,1,0,2],[0,3,0,0],[1,2,0,0],[0,0,1,2]]}'


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_full_report_on_worked_cubic(capsys):
    report = run_json(capsys, "analyze", CUBIC_WITH_SECTION)
    assert report["kernel"] == [0, 2, -3, 1]
    assert report["singular_locus"]["value"] == "-4/27"
    assert report["singular_locus"]["exponent"] == 1
    assert report["structure"]["negation_invariant"] is False
    assert report["trichotomy"]["branch"] == "superelliptic"
    assert report["trichotomy"]["generic_genus"] == 1

    section = report["genus_one"]
    assert section["gamma"] == "2/3"
    assert section["discriminant"] == "-432*t**2 - 64*t"
    by_place = {f["place"]: f["type"] for f in section["fibers"]}
    assert by_place["0"] == "I1"
    assert by_place["infinity"] == "II*"
    assert by_place["t + 4/27"] == "I1"
    assert section["verdict"]["kind"] == "base_change_gamma_lt_one"
    assert section["verdict"]["base_change_exponent"] == 1


def test_analyze_computes_each_genus_one_quantity_once(capsys, monkeypatch):
    calls = count_calls(
        monkeypatch,
        [
            ("reduction", "plane_model"),
            ("singular", "singular_locus"),
            ("singular", "classify_trichotomy"),
            ("oracle", "discriminant_oracle"),
            ("oracle", "oracle_matches_locus"),
            ("exact", "adjugate"),
            ("elliptic", "genus_one_section"),
            ("elliptic", "genus_one_weierstrass"),
            ("elliptic", "weierstrass_invariants"),
            ("elliptic", "kodaira_type"),
            ("elliptic", "_split"),
            ("sympy", "factor_list"),
            ("exact", "QPoly.sqf_part"),
        ],
    )
    # psi comes from the trichotomy's cyclic-cover form alone, and the away
    # orbit is one polynomial, built once by the section, divided into c4, c6
    # and delta once each and never factored or reduced to its squarefree
    # part (the section uses no sympy, so a call to either would come from
    # elsewhere)
    once = Counter(
        {
            "plane_model": 1,
            "singular_locus": 1,
            "classify_trichotomy": 1,
            "discriminant_oracle": 0,
            "oracle_matches_locus": 0,
            "adjugate": 1,
            "genus_one_section": 1,
            "genus_one_weierstrass": 1,
            "weierstrass_invariants": 1,
            "kodaira_type": 2,  # at 0 and at infinity
            "_split": 3,  # c4, c6 and delta, each divided by the orbit once
            "factor_list": 0,
            "QPoly.sqf_part": 0,  # the orbit t^k4 - c is squarefree
        }
    )
    report = run_json(capsys, "analyze", CUBIC_WITH_SECTION)
    assert report["genus_one"]["gamma"] == "2/3"
    assert calls == once

    calls.clear()
    report = run_json(capsys, "analyze", ODD_ORDER_QUARTIC)
    assert report["genus_one"]["gamma"] == "5/6"
    assert calls == once

    # the Lefschetz number reuses the surface's adjugate, and the oracle the
    # plane model and locus of the same analysis; the check that compares
    # them builds its own orbit polynomial, factors nothing and takes the
    # squarefree part of the oracle polynomial, a QPoly, once
    calls.clear()
    report = run_json(capsys, "analyze", CUBIC_WITH_SECTION, "--shioda", "--verify")
    assert report["verify"]["oracle"] == "match"
    assert calls == once + Counter(
        {"discriminant_oracle": 1, "oracle_matches_locus": 1, "QPoly.sqf_part": 1}
    )

    # the section is gated on the cover exponent: a genus-one cube cover
    # never enters the genus-one stages
    calls.clear()
    report = run_json(capsys, "analyze", CUBE_COVER)
    assert report["trichotomy"]["generic_genus"] == 1
    assert report["trichotomy"]["cover_exponent"] == 3
    assert "genus_one" not in report
    assert calls == Counter(
        {"plane_model": 1, "singular_locus": 1, "classify_trichotomy": 1, "adjugate": 1}
    )


@pytest.mark.parametrize(
    "surface, branch",
    [(CUBIC_WITH_SECTION, "superelliptic"), (SEMISTABLE, "semistable_away")],
    ids=["cubic", "semistable"],
)
def test_analyze_computes_the_locus_once(capsys, monkeypatch, surface, branch):
    calls = count_calls(
        monkeypatch, [("singular", "singular_locus"), ("singular", "_kernel_product")]
    )
    report = run_json(capsys, "analyze", surface)
    assert report["trichotomy"]["branch"] == branch
    assert calls == {"singular_locus": 1, "_kernel_product": 1}


@pytest.mark.parametrize(
    "extra", [[], ["--shioda", "--h2", "40"]], ids=["plain", "shioda"]
)
def test_analyze_computes_the_adjugate_once(capsys, monkeypatch, extra):
    calls = count_calls(monkeypatch, [("exact", "adjugate")])
    report = run_json(capsys, "analyze", CUBIC_WITH_SECTION, *extra)
    assert report["validation"]["determinant"] == 6
    assert ("shioda" in report) == bool(extra)
    assert calls == {"adjugate": 1}


def test_analyze_reads_file_stdin_and_inline_identically(capsys, tmp_path, monkeypatch):
    path = tmp_path / "surface.json"
    path.write_text(CUBIC_WITH_SECTION)
    _, from_file, _ = run_cli(capsys, "analyze", str(path))

    monkeypatch.setattr(sys, "stdin", io.StringIO(CUBIC_WITH_SECTION))
    _, from_stdin, _ = run_cli(capsys, "analyze", "-")

    _, from_inline, _ = run_cli(capsys, "analyze", CUBIC_WITH_SECTION)
    assert from_file == from_stdin == from_inline


def test_analyze_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "analyze", CUBIC_WITH_SECTION, "--json-indent", "2")
    _, second, _ = run_cli(capsys, "analyze", CUBIC_WITH_SECTION, "--json-indent", "2")
    assert first == second
    # sorted keys at every level
    report = json.loads(first)
    assert list(report) == sorted(report)
    assert list(report["genus_one"]) == sorted(report["genus_one"])


def test_analyze_degenerate_surface_stops_early(capsys):
    report = run_json(capsys, "analyze", DEGENERATE)
    assert report["validation"]["determinant"] == 0
    assert report["degeneracy"]["kind"] == "splits_after_base_change"
    assert report["degeneracy"]["base_change_degree"] == 1
    assert "kernel" not in report
    assert "trichotomy" not in report


def test_analyze_isotrivial_surface_has_no_genus_one_section(capsys):
    report = run_json(capsys, "analyze", ISOTRIVIAL)
    assert report["trichotomy"]["branch"] == "isotrivial"
    assert report["trichotomy"]["degeneration_value"] == -1
    assert "genus_one" not in report


def test_analyze_verify_reports_the_oracle_polynomial(capsys):
    report = run_json(capsys, "analyze", CUBIC_WITH_SECTION, "--verify")
    assert report["verify"]["oracle"] == "match"
    assert report["verify"]["polynomial"] == "27*t**2 + 4*t"


def test_analyze_verify_on_a_degree_eight_eliminant_is_fast(capsys):
    # the oracle's torus stratum of this degree-7 plane curve took Buchberger
    # about 23 s on (f, df/dx, df/dy); on (f, x df/dx, y df/dy) it takes
    # milliseconds, with the same eliminant
    surface = '{"monomials": [[5,1,1,0],[1,4,0,2],[0,0,5,2],[4,3,0,0]]}'
    start = time.perf_counter()
    report = run_json(capsys, "analyze", surface, "--verify")
    elapsed = time.perf_counter() - start
    assert report["verify"] == {
        "oracle": "match",
        "polynomial": "86413802648320402620376583*t**8"
        " - 6182561423938479966012434375*t**3",
    }
    assert elapsed < 2.0


def test_analyze_shioda_on_a_large_lattice_is_fast(capsys):
    # |det A| = 1008 but the generator moduli multiply to 2,985,984: the
    # coset closure lists L in O(|L|) steps, where a loop over every
    # combination of the generators' multiples took seconds
    surface = '{"monomials": [[2,0,5,0],[6,0,1,0],[0,1,0,6],[1,6,0,0]]}'
    start = time.perf_counter()
    report = run_json(capsys, "analyze", surface, "--shioda")
    elapsed = time.perf_counter() - start
    assert report["shioda"] == {"lambda": 114}
    assert elapsed < 1.0


def test_analyze_shioda_section_with_h2(capsys):
    report = run_json(
        capsys, "analyze", CUBIC_WITH_SECTION, "--shioda", "--h2", "10"
    )
    # rational elliptic surface: everything algebraic, nothing transcendental
    assert report["shioda"] == {"h2": 10, "lambda": 0, "rho": 10}

    without_h2 = run_json(capsys, "analyze", CUBIC_WITH_SECTION, "--shioda")
    assert without_h2["shioda"] == {"lambda": 0}


def test_analyze_reports_rho_only_with_shioda_and_h2():
    # the library computes rho and checks it; the command line prints it
    surface = surface_from_json(json.loads(CUBIC_WITH_SECTION))
    assert analysis.analyze(surface, shioda=True, h2=10).rho == 10
    assert analysis.analyze(surface, shioda=True).rho is None
    assert analysis.analyze(surface, h2=10).rho is None  # ignored without shioda
    with pytest.raises(ValidationError, match="gives rho = 0"):
        analysis.analyze(surface, shioda=True, h2=0)


@pytest.mark.parametrize("h2", ["0", "-5"])
def test_h2_below_lambda_plus_one_exits_3(capsys, h2):
    # rho = h2 - lambda, and every projective surface has rho >= 1
    code, out, err = run_cli(
        capsys, "analyze", CUBIC_WITH_SECTION, "--shioda", "--h2", h2
    )
    assert (code, out) == (3, "")
    assert f"--h2 {h2} gives rho = {h2}" in err


def test_h2_without_shioda_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["analyze", CUBIC_WITH_SECTION, "--h2", "10"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--h2 needs --shioda" in captured.err


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------


def test_picard_headline_record(capsys):
    record = run_json(capsys, "picard", "--p", "11", "--a", "1")
    assert record == {
        "p": 11,
        "a": 1,
        "L0_count": 200,
        "lambda": 140,
        "rho_tilde": 62,
        "rho": 61,
    }


def test_picard_hodge_flag(capsys):
    record = run_json(capsys, "picard", "--p", "3", "--a", "2", "--hodge")
    assert (record["h20"], record["h11prim"], record["h02"]) == (1, 18, 1)
    assert record["h20"] + record["h11prim"] + record["h02"] == record["L0_count"]


def test_picard_excluded_flag_lists_sorted_fractions(capsys):
    record = run_json(capsys, "picard", "--p", "11", "--a", "2", "--excluded")
    assert record["excluded_fractions"] == [
        "5/11",
        "1/2",
        "13/22",
        "9/11",
        "10/11",
        "21/22",
    ]


def test_picard_verify_recounts_from_the_matrix(capsys):
    record = run_json(capsys, "picard", "--p", "3", "--a", "1", "--verify")
    assert record["verify"] == {"status": "match", "vectors_checked": 8}
    assert record["rho_tilde"] == 10


def test_picard_verify_rechecks_the_hodge_levels(capsys):
    record = run_json(capsys, "picard", "--p", "5", "--a", "3", "--verify", "--hodge")
    assert record["verify"] == {"status": "match", "vectors_checked": 112}
    assert (record["h20"], record["h11prim"], record["h02"]) == (10, 92, 10)


def test_picard_past_the_weight_bound_exits_3_at_once(capsys):
    # 2ap is bounded by 10**4: unbounded, p = 100003 took 2.8 s and
    # p = 1000003 took 31 s; the largest member the tests run is (101, 30)
    for p, a in (("1000003", "1"), ("5003", "1"), ("101", "50")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "picard", "--p", p, "--a", a)
        elapsed = time.perf_counter() - start
        assert (code, out) == (3, "")
        assert "must be at most 10000" in err
        assert elapsed < 2.0
    assert run_json(capsys, "picard", "--p", "4999", "--a", "1")["p"] == 4999


def test_picard_verify_on_the_worst_admitted_input(capsys):
    # of the 1,885 admitted (p, a), the slowest recount found while each
    # unit row was packed unit by unit: |L0| * 2ap = 9,944 * 4,974 =
    # 49,461,456 steps, just inside the bound, over orders up to 4,974 with
    # 1,656 units; it took 0.77-1.51 s cold then, and 0.19-0.49 s with the
    # rows built by doubling (2-core shared VM)
    start = time.perf_counter()
    record = run_json(capsys, "picard", "--p", "3", "--a", "829", "--verify")
    elapsed = time.perf_counter() - start
    assert record["verify"] == {"status": "match", "vectors_checked": 9944}
    assert elapsed < 2.0


def test_picard_verify_on_the_largest_admitted_L0(capsys):
    # with the rows built by doubling, the recount's cost follows |L0|, and
    # the slowest admitted (p, a) found is the one with the largest L0:
    # 103,968 members over 2ap = 458, 47,617,344 steps; 0.49-1.12 s cold
    start = time.perf_counter()
    record = run_json(capsys, "picard", "--p", "229", "--a", "1", "--verify")
    elapsed = time.perf_counter() - start
    assert record["verify"] == {"status": "match", "vectors_checked": 103968}
    assert elapsed < 2.0


def test_picard_verify_past_the_recount_budget_exits_3_at_once(capsys):
    # |L0| * 2ap = 458,252 * 9,964 = 4.57 * 10**9 scaling steps, past the
    # bound of 5 * 10**7; unbounded, the recount would run for about 45 min
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "picard", "--p", "47", "--a", "106", "--verify")
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert "4566022928 scaling steps, more than 50000000" in err
    assert elapsed < 1.0


def test_picard_verify_checks_the_budget_before_the_slice_scan(capsys, monkeypatch):
    # a refused recount does none of the 2ap - 2 early-exit scans of the slice
    targets = [("shioda", "excluded_fractions"), ("shioda", "check_recount_budget")]
    calls = count_calls(monkeypatch, targets)
    code, out, _ = run_cli(capsys, "picard", "--p", "47", "--a", "106", "--verify")
    assert (code, out, calls["excluded_fractions"]) == (3, "", 0)
    # without --verify the same member is in range, and its slice is scanned
    assert run_json(capsys, "picard", "--p", "47", "--a", "106")["p"] == 47
    assert calls == {"excluded_fractions": 1, "check_recount_budget": 1}
    # an admitted recount checks its budget once
    run_json(capsys, "picard", "--p", "7", "--a", "2", "--verify")
    assert calls == {"excluded_fractions": 2, "check_recount_budget": 2}


def test_picard_verify_builds_each_unit_set_once(capsys, monkeypatch):
    # the level-2 members of L0 at (13, 4), the members both scans take, have
    # orders 26, 52 and 104: the exhaustive scan packs the units of d = 104
    # once per recount, and every member's lanes run over those units
    # whatever its order, so it sieves once, for d, and one table covers
    # three orders (a table of a smaller order would miss units of d, and the
    # recount would fail)
    calls = count_calls(monkeypatch, [("shioda", "_sieved_units")])
    run_json(capsys, "picard", "--p", "13", "--a", "4", "--verify")
    assert calls == {"_sieved_units": 1}
    d, generators = shioda.shioda_vectors(adjugate(shioda.FamilyParams(13, 4).matrix))
    members = shioda.enumerate_L0(d, generators).members(2)
    assert d == 104
    assert {d // gcd(d, *n) for n in members} == {26, 52, 104}


def test_analyze_shioda_at_the_character_bound(capsys):
    # the Fermat surface of degree 100 sits at the bound, |L| = 10**6, with
    # 960,597 members of L0, of which only the 646,899 at entry sum 2d are
    # unpacked and scanned.  It took 0.7-1.2 s cold in five runs (2-core
    # shared VM); the test below pins a slower admitted input
    surface = json.dumps(
        {"monomials": [[100 if i == j else 0 for j in range(4)] for i in range(4)]}
    )
    start = time.perf_counter()
    report = run_json(capsys, "analyze", surface, "--shioda")
    elapsed = time.perf_counter() - start
    assert report["shioda"] == {"lambda": 928610}
    assert elapsed < 5.0


def test_analyze_shioda_on_the_slowest_admitted_input_found(capsys):
    # the slowest admitted --shioda input that a seeded search over shapes
    # with |L| near the bound found (CHANGES.md): |L| = 869,632, and 6,803
    # sorted tuples of level-2 members outside Lambda, of orders up to
    # 13,588, each walk every unit below half their order.  It took
    # 5.9-6.4 s cold in four runs (2-core shared VM), and 11.4-13.4 s when
    # the early-exit scan walked every unit of the order
    surface = json.dumps(
        {"monomials": [[0, 0, 221, 127], [0, 0, 307, 41], [0, 32, 0, 316], [316, 32, 0, 0]]}
    )
    start = time.perf_counter()
    report = run_json(capsys, "analyze", surface, "--shioda")
    elapsed = time.perf_counter() - start
    assert report["shioda"] == {"lambda": 839514}
    assert elapsed < 15.0


def test_analyze_shioda_past_the_character_bound_exits_3_at_once(capsys):
    # the Fermat surface of degree 160 has |L| = 160**3 = 4,096,000, past the
    # bound of 10**6 members; unbounded, it ran for more than 40 s
    surface = json.dumps(
        {"monomials": [[160 if i == j else 0 for j in range(4)] for i in range(4)]}
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", surface, "--shioda")
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert "more than 1000000 members" in err
    assert elapsed < 2.0


def test_json_indent_past_its_bound_is_a_usage_error(capsys):
    # json.dumps writes the indent once per nesting level, so an unbounded
    # indent asks for an unbounded output before anything prints
    for indent in ("17", "-1", str(10**9)):
        for argv in (
            ("picard", "--p", "7", "--a", "2"),
            ("analyze", CUBIC_WITH_SECTION),
        ):
            with pytest.raises(SystemExit) as info:
                cli.main([*argv, "--json-indent", indent])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if "error:" in line]
            assert len(errors) == 1
            assert f"argument --json-indent: invalid choice: {indent} " in errors[0]
    for indent in ("0", "16"):
        argv = ("picard", "--p", "7", "--a", "2", "--json-indent", indent)
        assert run_json(capsys, *argv)["p"] == 7


def test_threads_is_a_usage_error(capsys):
    # the enumeration is serial; --threads is an unknown option like any other
    for argv in (
        ("picard", "--p", "7", "--a", "2", "--threads", "4"),
        ("analyze", CUBIC_WITH_SECTION, "--threads", "1"),
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(list(argv))
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_malformed_json_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", '{"monomials": [[0,2')
    assert code == 2
    assert out == ""
    assert "cannot read input" in err


def test_json_beyond_parser_limits_on_stdin_exits_2(capsys, monkeypatch):
    # well-formed JSON that the parser still refuses: an integer literal past
    # Python's 4,300-digit conversion limit, and arrays nested past the
    # recursion limit; both are too long for argv, so they come on stdin
    for text in (
        '{"monomials": ' + "1" * 4301 + "}",
        "[" * 100_000 + "]" * 100_000,
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "analyze", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read input: ")


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""


def test_unreadable_file_exits_2(capsys, tmp_path):
    # bytes that are not UTF-8, and a directory: both unreadable, neither
    # may end in a traceback or in exit 1 (the --verify mismatch code)
    path = tmp_path / "surface.json"
    path.write_bytes(b"\xff\xfe")
    for source in (path, tmp_path):
        code, out, err = run_cli(capsys, "analyze", str(source))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read input: ")
        assert "Traceback" not in err


def test_invalid_surface_exits_3(capsys):
    rows = "[[0,2,0,1],[3,0,0,0],[2,0,0,1],[0,0,1,2]]"
    for bad in (
        '{"monomials": %s, "bogus": 1}' % rows,
        # malformed shapes: not a list of lists, not a list of four ints
        '{"monomials": 5}',
        '{"monomials": [1,2,3,4]}',
        '{"monomials": %s, "permutation": 5}' % rows,
        '{"monomials": %s, "permutation": [0,1,2,"a"]}' % rows,
        '{"monomials": %s, "permutation": [0.0,1,2,3]}' % rows,
    ):
        code, out, err = run_cli(capsys, "analyze", bad)
        assert code == 3, bad
        assert out == ""
        assert "invalid input" in err


def coefficient_inputs(surface: str, value) -> list[str]:
    """The surface with ``value`` as the coefficient of each monomial in
    turn, the others 1."""
    rows = json.loads(surface)["monomials"]
    inputs = []
    for index in range(4):
        coefficients = [1, 1, 1, 1]
        coefficients[index] = value
        inputs.append(json.dumps({"monomials": rows, "coefficients": coefficients}))
    return inputs


def test_coefficients_at_the_digit_bound_are_analyzed(capsys):
    # the genus-one report prints the discriminant and j, whose integers are
    # about twelve times as long as the coefficients
    longest = "9" * 256
    for value in (longest, "1/" + longest, -int(longest)):
        for source in coefficient_inputs(CUBIC_WITH_SECTION, value):
            report = run_json(capsys, "analyze", source)
            assert "genus_one" in report


def test_coefficients_past_the_digit_bound_exit_3(capsys):
    # one digit past the bound, and a 901-digit coefficient whose
    # discriminant string would pass Python's 4,300-digit limit for str()
    for value in ("1" + "0" * 256, "1/" + "1" * 257, -(10**256), "7" * 901):
        for source in coefficient_inputs(CUBIC_WITH_SECTION, value):
            code, out, err = run_cli(capsys, "analyze", source)
            assert code == 3, (value, source)
            assert out == ""
            assert "more than 256 digits" in err
            assert "Traceback" not in err


def test_locus_value_past_the_str_limit_exits_3(capsys):
    # unit coefficients at degree 60: the kernel (-1197, -1383, 1909, 671)
    # makes prod k_i^{k_i} about 8,000 digits long, past Python's 4,300-digit
    # limit for str(); the bound is read before the value is formed
    surface = '{"monomials": [[50,0,5,5],[0,41,6,13],[1,2,40,17],[31,29,0,0]]}'
    code, out, err = run_cli(capsys, "analyze", surface)
    assert code == 3
    assert out == ""
    assert "singular-locus value could have more than 4300 digits" in err


def test_genus_zero_surface_exits_3(capsys):
    code, out, err = run_cli(capsys, "analyze", GENUS_ZERO)
    assert code == 3
    assert "genus" in err


def test_composite_p_exits_3(capsys):
    for p in ("4", "1", "2", "9", "-3"):
        code, out, err = run_cli(capsys, "picard", "--p", p, "--a", "1")
        assert code == 3
        assert out == ""
        assert "odd prime" in err


def test_verify_mismatch_exits_1_with_no_partial_json(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "oracle_matches_locus", lambda polynomial, locus: False)
    code, out, err = run_cli(capsys, "analyze", CUBIC_WITH_SECTION, "--verify")
    assert code == 1
    assert out == ""
    assert "verification failed" in err


PICARD_VERIFY = ("picard", "--p", "11", "--a", "1", "--verify")


def test_picard_verify_catches_a_slice_missing_a_fraction(capsys, monkeypatch):
    # the slice scan loses one excluded j, so rho_tilde and lambda are off
    real = shioda.excluded_fractions
    monkeypatch.setattr(
        shioda, "excluded_fractions", lambda params: set(sorted(real(params))[1:])
    )
    code, out, err = run_cli(capsys, *PICARD_VERIFY)
    assert code == 1
    assert out == ""
    assert "verification failed: lambda 140 != 150" in err


def test_picard_verify_catches_a_hodge_level_off_by_one(capsys, monkeypatch):
    # the closed form moves one character from level 1 to level 2
    real = shioda.gs_hodge_counts

    def off_by_one(params):
        h20, h11, h02 = real(params)
        return h20 - 1, h11 + 1, h02

    monkeypatch.setattr(shioda, "gs_hodge_counts", off_by_one)
    code, out, err = run_cli(capsys, *PICARD_VERIFY, "--hodge")
    assert code == 1
    assert out == ""
    assert "verification failed: h20 " in err


def test_picard_verify_catches_a_wrong_exhaustive_unit_set(capsys, monkeypatch):
    # the exhaustive scan's unit table gains the order N itself, which is no
    # unit: its lane sums to 0, so every member looks to be in Lambda, and
    # the first member the early-exit scan puts outside Lambda disagrees
    real_units = shioda._sieved_units
    monkeypatch.setattr(shioda, "_sieved_units", lambda order: real_units(order) + (order,))
    code, out, err = run_cli(capsys, "picard", "--p", "7", "--a", "2", "--verify")
    assert code == 1
    assert out == ""
    assert "verification failed: scan disagreement at (1/2, " in err


def test_picard_verify_catches_a_flipped_early_exit_verdict(capsys, monkeypatch):
    # the early-exit kernel flips its first verdict; the slice sieve does not
    # call it, so only the recount's comparison sees the flip
    real_kernel = shioda.lambda_witnesses
    flipped = []

    def flip_first(members, d):
        members = list(members)
        witnesses = real_kernel(members, d)
        flipped.append((members[0], d))
        witnesses[0] = 1 if witnesses[0] is None else None
        return witnesses

    monkeypatch.setattr(shioda, "lambda_witnesses", flip_first)
    code, out, err = run_cli(capsys, *PICARD_VERIFY)
    assert code == 1
    assert out == ""
    [(numerators, d)] = flipped
    entries = ", ".join(str(Fraction(n, d)) for n in numerators)
    assert f"verification failed: scan disagreement at ({entries})" in err
    assert "scan disagreement at (1/2, " in err  # every family member has x-entry 1/2


def patch_levels(monkeypatch, edit) -> None:
    """Make ``enumerate_L0`` hand over the level masks ``edit(h20, h11, h02)``
    in place of its own, each 1 in the lane of every member it holds."""
    real = shioda.enumerate_L0

    def patched(d, generators):
        characters = real(d, generators)
        characters.levels = edit(*characters.levels)
        return characters

    monkeypatch.setattr(shioda, "enumerate_L0", patched)


def first_lane(mask: int) -> int:
    return mask & -mask


def test_picard_verify_catches_a_level_1_member_handed_over_as_level_2(capsys, monkeypatch):
    # the level counts still add up to |L0|, and both scans agree that the
    # moved member is in Lambda, but its early-exit witness is t = 1
    patch_levels(monkeypatch, lambda h20, h11, h02: (
        h20 ^ first_lane(h20), h11 | first_lane(h20), h02))
    code, out, err = run_cli(capsys, *PICARD_VERIFY)
    assert (code, out) == (1, "")
    assert "verification failed: level-2 member (1/2, " in err
    assert "has early-exit witness 1" in err


def test_picard_verify_catches_levels_1_and_3_out_of_balance(capsys, monkeypatch):
    # a member of entry sum 1 counted at entry sum 3: |L0|, the scans and
    # lambda all hold, but n -> -n swaps the two levels, so h20 == h02 fails
    patch_levels(monkeypatch, lambda h20, h11, h02: (
        h20 ^ first_lane(h20), h11, h02 | first_lane(h20)))
    code, out, err = run_cli(capsys, *PICARD_VERIFY)
    assert (code, out) == (1, "")
    assert "verification failed: h20 19 != h02 21, though n -> -n swaps them" in err


def test_picard_verify_catches_level_counts_off_L0(capsys, monkeypatch):
    # a member counted at two levels, so the three counts pass |L0|
    patch_levels(monkeypatch, lambda h20, h11, h02: (h20, h11 | first_lane(h20), h02))
    code, out, err = run_cli(capsys, *PICARD_VERIFY)
    assert (code, out) == (1, "")
    assert "verification failed: level counts (20, 161, 20) do not add up to L0 size 200" in err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_two_main_calls_build_one_parser(capsys):
    # each call still gets its own options: --hodge does not carry over
    cli.build_parser.cache_clear()
    first = run_json(capsys, "picard", "--p", "3", "--a", "2", "--hodge")
    second = run_json(capsys, "picard", "--p", "3", "--a", "2")
    assert "h20" in first and "h20" not in second
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# pinned stdout
# ---------------------------------------------------------------------------

# sha256 over the exit code and stdout of every command in pinned_commands();
# any change to the bytes of analyze on these inputs shows here, so change it
# only with a deliberate change of output
PINNED_ANALYZE_SHA256 = (
    "1c803db5c2e96327e32575e1cc4cb131cb73be0f77a28bc7ef9b6b989deffdf3"
)

RATIONAL_COEFFICIENTS = [2, "3/5", -7, "4/3"]


@functools.lru_cache(maxsize=None)
def pinned_commands() -> tuple[tuple[str, ...], ...]:
    """analyze --shioda --h2 40 on the first 100 corpus surfaces, the named
    inputs above, and two of them with non-unit rational coefficients."""
    sources = [
        json.dumps({"monomials": [list(row) for row in surface.rows]})
        for surface in deterministic_corpus(min_count=120)[:100]
    ]
    sources += [
        CUBIC_WITH_SECTION, ODD_ORDER_QUARTIC, DEGENERATE, ISOTRIVIAL, SEMISTABLE,
        GENUS_ZERO,
    ]
    for named in (ISOTRIVIAL, CUBIC_WITH_SECTION):
        with_coefficients = dict(json.loads(named), coefficients=RATIONAL_COEFFICIENTS)
        sources.append(json.dumps(with_coefficients))
    return tuple(("analyze", source, "--shioda", "--h2", "40") for source in sources)


def test_analyze_stdout_is_pinned():
    reached = set()
    digest = hashlib.sha256()
    for argv in pinned_commands():
        code, out = run_quietly(argv)
        digest.update(f"{code}\n{out}".encode())
        if code != 0:
            reached.add(f"exit {code}")
            continue
        report = json.loads(out)
        if report["degeneracy"]["kind"] != "nondegenerate":
            reached.add("degenerate surface")
            continue
        reached.add(report["trichotomy"]["branch"])
        if report["singular_locus"]["degenerate"]:
            reached.add("degenerate locus")
        if "genus_one" in report:
            reached.add("genus_one")
    assert reached == {
        "isotrivial", "superelliptic", "semistable_away", "genus_one",
        "degenerate surface", "degenerate locus", "exit 3",
    }
    assert digest.hexdigest() == PINNED_ANALYZE_SHA256


def optimized_digest(commands) -> str:
    """``digest.stdout_digest`` of ``commands`` in a ``python -O`` child,
    where assert statements are stripped."""
    env = entry_point_env(str(Path(__file__).resolve().parent))
    script = (
        "import json, sys\n"
        "from digest import stdout_digest\n"
        "print(stdout_digest(json.load(sys.stdin)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        input=json.dumps(commands),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_analyze_stdout_is_pinned_under_optimize():
    # assert statements are stripped under -O; the bytes must not move
    assert optimized_digest(pinned_commands()) == PINNED_ANALYZE_SHA256


# sha256 over the exit code and stdout of every command in
# genus_one_commands(); pinned like PINNED_ANALYZE_SHA256
PINNED_GENUS_ONE_SHA256 = (
    "f8e266cf16951bf431e092f99f575dfe1c8fd1a97461aace2c9ef4cab8806e9a"
)


@functools.lru_cache(maxsize=None)
def genus_one_commands() -> tuple[tuple[str, ...], ...]:
    """analyze on 400 seeded surfaces y^2 plus three x^e t^f monomials, every
    other one with four non-unit rational coefficients of up to 12 digits on
    each side of the bar."""
    rng = random.Random(12)
    commands = []
    for i in range(400):
        surface = surface_from_affine_triples(y_squared_triples(rng))
        source: dict = {"monomials": [list(row) for row in surface.rows]}
        if i % 2:
            source["coefficients"] = [
                rational_to_json(
                    Fraction(
                        rng.choice((-1, 1)) * rng.randrange(1, 10**12),
                        rng.randrange(1, 10**12),
                    )
                )
                for _ in range(4)
            ]
        commands.append(("analyze", json.dumps(source)))
    return tuple(commands)


def test_genus_one_stdout_is_pinned():
    digest = hashlib.sha256()
    sections = Counter()
    for argv in genus_one_commands():
        code, out = run_quietly(argv)
        digest.update(f"{code}\n{out}".encode())
        if code == 0 and "genus_one" in json.loads(out):
            sections["coefficients" in argv[1]] += 1
    # most draws reach the genus-one section, with and without coefficients
    assert min(sections[False], sections[True]) >= 100
    assert digest.hexdigest() == PINNED_GENUS_ONE_SHA256


# sha256 over the exit code and stdout of every command in verify_commands();
# pinned like PINNED_ANALYZE_SHA256, it holds the oracle polynomials' bytes
PINNED_VERIFY_SHA256 = (
    "505e74dc1473bc847dc5c6c2f608438477d56c182e9467f58db74d2aae474521"
)


@functools.lru_cache(maxsize=None)
def verify_commands() -> tuple[tuple[str, ...], ...]:
    """analyze --verify on 60 seeded nondegenerate surfaces of degree 3 to 6,
    every other one with four rational coefficients."""
    rng = random.Random(14)
    commands = []
    while len(commands) < 60:
        triples = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(4)]
        if len(set(triples)) < 4 or not 3 <= max(map(sum, triples)) <= 6:
            continue
        try:
            surface = surface_from_affine_triples(triples)
        except ValidationError:
            continue
        if surface.is_degenerate:
            continue
        source: dict = {"monomials": [list(row) for row in surface.rows]}
        if len(commands) % 2:
            source["coefficients"] = [
                rational_to_json(
                    Fraction(
                        rng.choice((-1, 1)) * rng.randrange(1, 100),
                        rng.randrange(1, 100),
                    )
                )
                for _ in range(4)
            ]
        commands.append(("analyze", json.dumps(source), "--verify"))
    return tuple(commands)


def test_verify_stdout_is_pinned():
    digest = hashlib.sha256()
    polynomials = 0
    for argv in verify_commands():
        code, out = run_quietly(argv)
        digest.update(f"{code}\n{out}".encode())
        if code == 0:
            polynomials += "polynomial" in json.loads(out)["verify"]
    assert polynomials >= 30  # most draws print an oracle polynomial
    assert digest.hexdigest() == PINNED_VERIFY_SHA256


def test_verify_stdout_is_pinned_under_optimize():
    # oracle_matches_locus raises its AssertionError, which -O keeps
    assert optimized_digest(verify_commands()) == PINNED_VERIFY_SHA256


# sha256 over the exit code and stdout of every command in picard_commands();
# pinned like PINNED_ANALYZE_SHA256
PINNED_PICARD_SHA256 = (
    "fa442fa9d9367ed3d263c5b72b07732c1521d60da7a1e32b59ac14cb3d80b634"
)


@functools.lru_cache(maxsize=None)
def picard_commands() -> tuple[tuple[str, ...], ...]:
    """picard --hodge --excluded on the 130 members of the grid, odd prime
    p <= 43 and a <= 10; --verify --hodge on six small members; one record
    printed with --json-indent 2; and a recount refused past its budget."""
    grid = [(p, a) for p in range(3, 44) if shioda.is_prime(p) for a in range(1, 11)]
    small = ((3, 1), (3, 2), (5, 3), (7, 2), (11, 1), (13, 4))
    commands = [
        ("picard", "--p", str(p), "--a", str(a), "--hodge", "--excluded")
        for p, a in grid
    ]
    commands += [
        ("picard", "--p", str(p), "--a", str(a), "--verify", "--hodge")
        for p, a in small
    ]
    commands += [
        ("picard", "--p", "11", "--a", "2", "--excluded", "--json-indent", "2"),
        ("picard", "--p", "47", "--a", "106", "--verify"),
    ]
    return tuple(commands)


def test_picard_stdout_is_pinned():
    digest = hashlib.sha256()
    codes = Counter()
    for argv in picard_commands():
        code, out = run_quietly(argv)
        digest.update(f"{code}\n{out}".encode())
        codes[code] += 1
    assert codes == {0: 137, 3: 1}  # the grid has 130 members
    assert digest.hexdigest() == PINNED_PICARD_SHA256


def test_picard_stdout_is_pinned_under_optimize():
    assert optimized_digest(picard_commands()) == PINNED_PICARD_SHA256


def verify_fuzz_commands(seed: int, count: int) -> list[tuple[str, ...]]:
    """analyze --verify on ``count`` seeded nondegenerate surfaces of degree
    2 to 7, each row uniform among those of its degree, with four rational
    coefficients, and about three in ten with a permutation of the
    variables."""
    rng = random.Random(seed)
    commands = []
    while len(commands) < count:
        rows = uniform_rows(rng, rng.randint(2, 7))
        try:
            if validate_surface(rows).is_degenerate:
                continue
        except ValidationError:
            continue
        source: dict = {
            "monomials": rows,
            "coefficients": [
                rational_to_json(
                    Fraction(
                        rng.choice((-1, 1)) * rng.randrange(1, 100),
                        rng.randrange(1, 100),
                    )
                )
                for _ in range(4)
            ],
        }
        if rng.random() < 0.3:
            source["permutation"] = rng.sample(range(4), 4)
        commands.append(("analyze", json.dumps(source), "--verify"))
    return commands


# how many chart variables the oracle's Groebner bases keep off 0, each
# basis in (u, x1, ..., xn, t) in lex: two on the torus and on the Newton
# faces at the three vertex charts, one on the punctured lines
ORACLE_CHART_SIZES = {1, 2}


def test_verify_fuzz_exits_0_or_3_and_every_oracle_matches(capsys, monkeypatch):
    # every admitted surface either checks its locus against the oracle or
    # is refused with exit 3 (a rational generic fiber) and no partial JSON
    outcomes = Counter()
    systems = set()
    basis = oracle._basis

    def recording_basis(system):
        systems.add(len(next(iter(system[0]))) - 1)  # keyed by x1..xn and t
        return basis(system)

    monkeypatch.setattr(oracle, "_basis", recording_basis)
    for argv in verify_fuzz_commands(23, 200):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 3) and "Traceback" not in err, (argv, err)
        if code == 3:
            assert out == "", argv
            outcomes["exit 3"] += 1
            continue
        verify = json.loads(out)["verify"]
        assert verify["oracle"] in ("match", "skipped"), argv
        assert ("polynomial" in verify) == (verify["oracle"] == "match"), argv
        outcomes[verify["oracle"]] += 1
    assert outcomes["match"] >= 100 and outcomes["exit 3"] >= 1, outcomes
    # every basis is taken over the generators of one of the strata
    assert 2 in systems and systems <= ORACLE_CHART_SIZES


@pytest.mark.parametrize("surface", [CUBIC_WITH_SECTION, ODD_ORDER_QUARTIC])
def test_analyze_prints_without_sympy_printer(capsys, monkeypatch, surface):
    # every printed polynomial and j go through the exact printers
    calls = count_calls(
        monkeypatch, [("sympy.printing.str", "StrPrinter.doprint")]
    )
    report = run_json(capsys, "analyze", surface, "--verify")
    assert "genus_one" in report and "polynomial" in report["verify"]
    assert calls["StrPrinter.doprint"] == 0


def test_verify_runs_groebner_in_the_standard_library(capsys, monkeypatch):
    # the oracle's Buchberger is its own: neither of sympy's groebner
    # functions runs, and no expression is substituted into or made a Poly
    sympy_calls = count_calls(
        monkeypatch,
        [
            ("sympy", "groebner"),
            ("sympy.polys.groebnertools", "groebner"),
            ("sympy.polys.polytools", "Poly.__new__"),
            ("sympy.core.basic", "Basic.subs"),
        ],
    )
    kernel_calls = count_calls(monkeypatch, [("oracle", "_buchberger")])
    report = run_json(capsys, "analyze", CUBIC_WITH_SECTION, "--verify")
    assert report["verify"]["polynomial"] == "27*t**2 + 4*t"
    assert sum(sympy_calls.values()) == 0
    assert kernel_calls["_buchberger"] >= 1


# one named witness per normalization rule of the printed oracle polynomial,
# on CUBIC_WITH_SECTION's monomials: its line y = 0 gives the eliminant
# (27t + 4 with unit coefficients), and its vertex (0 : 0 : 1), where the
# t-monomial c t is the only one of local degree <= 1, gives the gcd factor
@pytest.mark.parametrize(
    "coefficients, polynomial",
    [
        # over ZZ the eliminant is primitive with a positive leading
        # coefficient, here 27, not monic
        ([1, 1, 1, 1], "27*t**2 + 4*t"),
        # over ZZ the vertex gcd keeps its content: |c| t = 3t for c = -3;
        # the eliminant is 81t - 4
        ([1, 1, 1, -3], "243*t**2 - 12*t"),
        # over QQ both are monic: t - 8575/81 and t
        ([2, "3/5", -7, "4/3"], "t**2 - 8575*t/81"),
    ],
)
def test_verify_polynomial_normalization_is_pinned(capsys, coefficients, polynomial):
    source = dict(json.loads(CUBIC_WITH_SECTION), coefficients=coefficients)
    report = run_json(capsys, "analyze", json.dumps(source), "--verify")
    assert report["verify"] == {"oracle": "match", "polynomial": polynomial}


# ---------------------------------------------------------------------------
# real process
# ---------------------------------------------------------------------------


def entry_point_env(*extra: str) -> dict:
    """The environment of a child that imports the package from where this
    process found it, and ``extra`` directories besides."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, *extra, env.get("PYTHONPATH")) if p
    )
    return env


def test_module_entry_point_round_trips():
    env = entry_point_env()
    proc = subprocess.run(
        [sys.executable, "-m", "delsarte.cli", "picard", "--p", "5", "--a", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["rho_tilde"] == 26
    assert proc.stdout.endswith("\n")


def test_closed_stdout_exits_2_without_a_traceback():
    # the reader of the pipe is gone before the child writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "delsarte.cli", "analyze", CUBIC_WITH_SECTION,
                "--json-indent", "2",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=entry_point_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: stdout is closed\n"
