"""One traced ``delsarte`` command in a fresh process (the cold workload).

    python3 bench/child.py SPANS_PATH analyze '{"monomials": ...}'

Behaves like ``python -m delsarte.cli`` on the remaining arguments, with
spans recorded around delsarte's public functions and written to SPANS_PATH.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from delsarte import cli

    tracer = Tracer()
    tracer.install()
    code = tracer.run_op(0, cli.main, argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
