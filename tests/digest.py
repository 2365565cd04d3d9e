"""One sha256 over the exit codes and stdout of a list of delsarte commands,
so that a test can pin the bytes of many runs at once.

Imports nothing beyond the package, so a child process can run it cheaply:
``python -O -c "import json, sys; from digest import stdout_digest;
print(stdout_digest(json.load(sys.stdin)))"`` with this directory and the
package on ``PYTHONPATH`` and the commands as a JSON list on stdin.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from delsarte import cli


def run_quietly(argv) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main(argv)``; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def stdout_digest(commands) -> str:
    """sha256 over the exit code and stdout of each command, in order."""
    digest = hashlib.sha256()
    for argv in commands:
        code, out = run_quietly(argv)
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()
