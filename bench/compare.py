"""Compare two result records written by ``bench/run.py``.

    python3 bench/compare.py bench/out/A.json bench/out/B.json

The two records must come from the same environment: the same workload,
seed, run length, trace mode, Python, sympy, sympy ground types and core
count.  Only the commit and the source digest may differ, since those are
what a comparison is for.  Otherwise the comparison is refused with exit 2.
"""

from __future__ import annotations

import json
import sys

MAY_DIFFER = {"commit", "source_sha256"}


def mismatches(a: dict, b: dict) -> list[str]:
    keys = (set(a) | set(b)) - MAY_DIFFER
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in sorted(keys) if a.get(k) != b.get(k)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.load(open(path)) for path in argv)
    differ = mismatches(first["environment"], second["environment"])
    if differ:
        print("refusing to compare: environments differ", file=sys.stderr)
        for line in differ:
            print(f"  {line}", file=sys.stderr)
        return 2
    print(f"{'metric':44s} {'A':>12s} {'B':>12s} {'B/A-1':>8s}")
    for name, value in first["metrics"].items():
        other = second["metrics"].get(name)
        if other is None:
            print(f"{name:44s} {value:12.4g} {'absent':>12s}")
            continue
        change = f"{other / value - 1:+8.1%}" if value else "       -"
        print(f"{name:44s} {value:12.4g} {other:12.4g} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
