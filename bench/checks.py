"""Output checks applied to every benchmark op.

An op is one ``delsarte`` command line.  It passes when its exit code is
accepted for its command, its stdout is one sorted-key JSON document (or
empty, for the documented exit 3 of ``analyze``), every ``verify`` section
reads ``match``, and a ``picard`` record satisfies the identities checked in
``check_picard``.  Ops that raise, print a traceback or exit 1 fail.
"""

from __future__ import annotations

import json
from typing import Optional

from generators import family_L0_size

ACCEPTED_EXIT = {"analyze": {0, 3}, "picard": {0}}


def _canonical(stdout: str) -> Optional[dict]:
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    if stdout != json.dumps(report, sort_keys=True) + "\n":
        return None
    return report if isinstance(report, dict) else None


def check_picard(record: dict, p: int, a: int) -> Optional[str]:
    """None when the picard identities hold, else the first that fails."""
    if (record.get("p"), record.get("a")) != (p, a):
        return "p, a not echoed"
    count = record.get("L0_count")
    if count != family_L0_size(p, a):
        return "L0_count != (p-1)(2ap-2)"
    if record.get("rho") != record["rho_tilde"] - 1:
        return "rho != rho_tilde - 1"
    if record.get("lambda") != count - (record["rho_tilde"] - 2):
        return "lambda != L0_count - (rho_tilde - 2)"
    if "h20" in record and record["h20"] + record["h11prim"] + record["h02"] != count:
        return "h20 + h11prim + h02 != L0_count"
    if "verify" in record and record["verify"] != {
        "status": "match",
        "vectors_checked": count,
    }:
        return "picard verify did not match"
    return None


def check_analyze(report: dict) -> Optional[str]:
    """None when the report's verify section, if any, reads match."""
    verify = report.get("verify")
    if verify is None or verify.get("oracle") == "match":
        return None
    # The documented skip: the closed form does not apply to a degenerate locus.
    if verify.get("oracle") == "skipped" and report["singular_locus"]["degenerate"]:
        return None
    return f"verify reads {verify.get('oracle')!r}"


def check_op(op, code: int, stdout: str) -> Optional[str]:
    """None when the op's output passes, else a one-line reason."""
    if code not in ACCEPTED_EXIT[op.command]:
        return f"exit {code}"
    if code == 3:
        return None if stdout == "" else "output printed before exit 3"
    report = _canonical(stdout)
    if report is None:
        return "stdout is not one sorted-key JSON document"
    try:
        if op.command == "picard":
            return check_picard(report, op.p, op.a)
        return check_analyze(report)
    except (KeyError, TypeError) as exc:
        return f"report lacks a field: {exc!r}"
