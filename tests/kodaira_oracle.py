"""The textbook table of Kodaira fibers, the reference for the package's
records.

``kodaira_fiber`` builds a record from its symbol alone ("I3", "I1*",
"IV*", ...), with the Euler numbers and conductor exponents of the table
in characteristic zero: I_n has e = n and f = 1 (f = 0 for I0), I_n* has
e = n + 6, and the other additive types have the Euler numbers listed
below, all with f = 2.  The package builds the same record from the minimal
valuations instead, so the two meet exactly when Ogg's formula
e = v(delta_min) holds.
"""

from __future__ import annotations

from delsarte.elliptic import KodairaFiber

ADDITIVE_EULER = {"II": 2, "III": 3, "IV": 4, "I0*": 6, "IV*": 8, "III*": 9, "II*": 10}


def kodaira_fiber(symbol: str) -> KodairaFiber:
    """The fiber record of ``symbol`` in the textbook table."""
    if symbol == "I0":
        return KodairaFiber("I0", 0, 0, 0)
    if symbol in ADDITIVE_EULER:
        return KodairaFiber(symbol, 0, ADDITIVE_EULER[symbol], 2)
    body = symbol[1:-1] if symbol.endswith("*") else symbol[1:]
    if symbol.startswith("I") and body.isdigit() and int(body) >= 1:
        n = int(body)
        if symbol.endswith("*"):
            return KodairaFiber(symbol, n, 6 + n, 2)
        return KodairaFiber(symbol, n, n, 1)
    raise ValueError(f"unknown Kodaira symbol {symbol!r}")
