"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload genus_one --seed 1 --seconds 26 --trace 0

``--trace 0`` runs the workload's closed loop with nothing wrapped and
reports the end-to-end metrics.  Their times are scaled to a reference host
speed by a calibration kernel run between ops (see ``calibrate.py``); the
record keeps the wall-clock values too.  ``--trace 1`` runs the loop
untraced for half the time, replays the same ops with spans around
delsarte's public functions, and reports the per-layer metrics and the
tracing overhead.
Every op's output is checked (see ``checks.py``), and the stdout of the
first ops at the default seed must hash to the value pinned in
``expected.json``.  The full record, with the environment, goes to
``bench/out/``; the last stdout line is the summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

from calibrate import REFERENCE_S, Calibration, kernel_seconds  # noqa: E402
from checks import check_op  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 5
SETUP_KERNEL_RUNS = 5  # calibration kernel runs between set-up samples
WORKED_CUBIC = '{"monomials": [[0,2,0,1],[3,0,0,0],[2,0,0,1],[0,0,1,2]]}'


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "delsarte").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the repository rooted here; None outside one (a parent
    directory's repository does not count)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args) -> dict:
    """The record two results must share before they may be compared."""
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# executing one op
# ---------------------------------------------------------------------------


def clear_cache() -> None:
    """Empty sympy's cache, so each timed loop starts from the same state."""
    from sympy.core.cache import clear_cache as clear

    clear()


def run_warm(op, tracer=None, op_id=0):
    """One in-process cli.main call: (exit code, stdout, seconds)."""
    from delsarte import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                code = tracer.run_op(op_id, cli.main, list(op.argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed op, not a failed benchmark
        code = "raised " + traceback.format_exc(limit=1).splitlines()[-1]
    return code, out.getvalue(), time.perf_counter() - start


def run_cold(op, spans_path=None):
    """One fresh process, timed from spawn to exit."""
    if spans_path is None:
        command = [sys.executable, "-m", "delsarte.cli", *op.argv]
    else:
        command = [sys.executable, str(BENCH / "child.py"), str(spans_path), *op.argv]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True)
    seconds = time.perf_counter() - start
    return done.returncode, done.stdout.decode(), seconds


class Loop:
    """Runs ops one at a time, checks each, and keeps latencies.

    ``wall`` holds each op's wall time.  A timed loop also runs the
    calibration kernel between ops (see ``calibrate.py``), and
    ``latencies`` holds each op's time scaled to the reference host speed.
    The pinned check ops are not timed.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.ops: list = []
        self.bounds: list[int] = []  # op count at the end of each block
        self.wall: list[float] = []
        self.marks: list[int] = []
        self.calibration = None
        self.routes: dict[str, float] = {}
        self.codes: dict[str, int] = {}
        self.failures: list[str] = []
        self.genus_one = 0
        self.seen: dict[tuple, bytes] = {}
        self.child_spans: list[list] = []
        self.child_absent: list[str] = []

    def execute(self, op):
        index = len(self.wall)
        if not self.workload.cold:
            return run_warm(op, self.tracer, index)
        if self.tracer is None:
            return run_cold(op)
        path = OUT / "child-spans.json"
        path.unlink(missing_ok=True)
        result = run_cold(op, path)
        if path.exists():
            trace = json.loads(path.read_text())
            self.child_absent = trace["absent"]
            base = len(self.child_spans)
            for name, start, end, parent, _ in trace["spans"]:
                parent = None if parent is None else parent + base
                self.child_spans.append([name, start, end, parent, index])
        return result

    def step(self, op) -> str:
        code, stdout, seconds = self.execute(op)
        if self.calibration is not None:
            self.marks.append(self.calibration.mark())
        self.ops.append(op)
        self.wall.append(seconds)
        self.routes[op.route] = self.routes.get(op.route, 0.0) + seconds
        self.codes[str(code)] = self.codes.get(str(code), 0) + 1
        self.genus_one += '"genus_one"' in stdout
        reason = check_op(op, code, stdout) if isinstance(code, int) else str(code)
        digest = hashlib.sha256(stdout.encode()).digest()
        if self.seen.setdefault(op.argv, digest) != digest:
            reason = reason or "stdout differs from an earlier run of the same op"
        if reason:
            self.failures.append(f"{' '.join(op.argv)[:160]}: {reason}")
        return stdout

    def start_timing(self) -> None:
        clear_cache()
        self.calibration = Calibration()

    @property
    def latencies(self) -> list[float]:
        factor = self.calibration.factor
        return [t * factor(k) for t, k in zip(self.wall, self.marks)]

    def run_block(self, block) -> None:
        for op in block:
            self.step(op)
        self.bounds.append(len(self.ops))

    def run_for(self, blocks, seconds: float) -> None:
        """Whole blocks until ``seconds`` have passed."""
        self.start_timing()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.run_block(next(blocks))

    def replay(self, other: "Loop") -> None:
        """The blocks another loop ran, in the same order."""
        self.start_timing()
        start = 0
        for end in other.bounds:
            self.run_block(other.ops[start:end])
            start = end

# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def ops_per_s(latencies) -> float:
    """Ops completed per busy second.  A run holds whole blocks, so it sees
    the same mix of inputs whatever its length."""
    return len(latencies) / sum(latencies)


def tail(latencies, percentile: int) -> tuple[float, int]:
    """(nearest-rank percentile, number of samples above it)."""
    ordered = sorted(latencies)
    rank = math.ceil(percentile * len(ordered) / 100)
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb(cold: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_seconds() -> tuple[list[float], list[float]]:
    """Fresh-process times of ``import delsarte.cli``: wall, and scaled by
    the calibration kernel runs on either side of each sample."""
    kernels = [[kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]]
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import delsarte.cli"],
            cwd=ROOT,
            env=child_env(),
            check=True,
        )
        wall.append(time.perf_counter() - start)
        kernels.append([kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)])
        near = kernels[-2] + kernels[-1]
        scaled.append(wall[-1] * REFERENCE_S / statistics.fmean(near))
    return wall, scaled


# ---------------------------------------------------------------------------
# import probe
# ---------------------------------------------------------------------------


def _importtime(extra_args):
    """[(depth, name, cumulative microseconds)] from ``python -X importtime``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *extra_args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    rows = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    return rows, done.stdout


def import_probe():
    """The import.* metrics, and the packages each command loads that cost
    at least 20 ms to import and that a bare interpreter does not load."""
    rows, stdout = _importtime(
        ["-c", "import sys, delsarte.cli; print(len(sys.modules))"]
    )
    metrics = {
        "import.delsarte_ms": sum(
            c for d, n, c in rows if d == 0 and n.split(".")[0] == "delsarte"
        )
        / 1e3,
        "import.sympy_ms": next((c for _, n, c in rows if n == "sympy"), 0) / 1e3,
        "import.modules": int(stdout.strip() or 0),
    }
    bare = {n.split(".")[0] for _, n, _ in _importtime(["-c", "pass"])[0]}
    heavy = {}
    for command, argv in (
        ("analyze", ["analyze", WORKED_CUBIC]),
        ("picard", ["picard", "--p", "3", "--a", "1"]),
    ):
        rows, _ = _importtime(["-m", "delsarte.cli", *argv])
        heavy[command] = sorted(
            {n.split(".")[0] for _, n, c in rows if c >= 20_000} - bare
        )
    metrics["import.picard_loads_sympy"] = int("sympy" in heavy["picard"])
    return metrics, heavy


# ---------------------------------------------------------------------------
# the pinned stdout hash
# ---------------------------------------------------------------------------


def check_set_hash(workload) -> tuple[str, list[str]]:
    """sha256 of the stdout of the first ops at the default seed."""
    loop = Loop(workload)
    ops = workload.ops(random.Random(DEFAULT_SEED))
    digest = hashlib.sha256()
    for _ in range(workload.check_ops):
        digest.update(loop.step(next(ops)).encode())
    return digest.hexdigest(), loop.failures


def write_expected() -> None:
    pinned = {}
    for name, workload in WORKLOADS.items():
        sha, failures = check_set_hash(workload)
        if failures:
            sys.exit(f"{name}: check ops fail: {failures}")
        pinned[name] = {"seed": DEFAULT_SEED, "ops": workload.check_ops, "sha256": sha}
    EXPECTED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="recompute the pinned stdout hashes of every workload and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delsarte" / "cli.py").is_file():
        print(f"error: no delsarte sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.write_expected:
        write_expected()
        return 0

    workload = WORKLOADS[args.workload]
    env = environment(args)
    setup_wall, setup = ([], []) if args.trace else setup_seconds()

    # The pinned check ops double as warm-up for the in-process workloads.
    pinned = json.loads(EXPECTED.read_text())[workload.name]
    sha, check_failures = check_set_hash(workload)
    if sha != pinned["sha256"]:
        check_failures.append(f"default-seed stdout sha256 {sha} != pinned")

    plain = Loop(workload)
    blocks = workload.blocks(random.Random(args.seed))
    plain.run_for(blocks, args.seconds / 2 if args.trace else args.seconds)
    loops = [plain]
    latencies = plain.latencies
    busy = sum(plain.wall)
    detail = {
        "ops": len(plain.ops),
        "busy_s": busy,
        "kernel_runs": len(plain.calibration.kernel_s),
        "kernel_ms_quartiles": [
            1e3 * s for s in statistics.quantiles(plain.calibration.kernel_s, n=4)
        ],
        "exit_codes": plain.codes,
        "genus_one_frac": plain.genus_one / len(plain.ops),
        "route_share": {k: v / busy for k, v in sorted(plain.routes.items())},
    }
    if args.trace:
        # The traced loop replays the untraced loop's ops, so the two rates
        # differ only by the tracing.
        tracer = Tracer()
        if not workload.cold:
            tracer.install()
        traced = Loop(workload, tracer)
        try:
            traced.replay(plain)
        finally:
            tracer.uninstall()
        loops.append(traced)
        if workload.cold:
            spans, absent = traced.child_spans, traced.child_absent
        else:
            spans, absent = tracer.spans, tracer.absent
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"absent": absent, "spans": spans})
        )
        metrics = layer_metrics(spans, len(traced.ops))
        untraced_rate = ops_per_s(latencies)
        traced_rate = ops_per_s(traced.latencies)
        metrics["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
        metrics["trace.overhead_pct"] = 100.0 * (1 - traced_rate / untraced_rate)
        probe, heavy = import_probe()
        metrics.update(probe)
        detail.update(absent=absent, heavy_imports=heavy)
    else:
        value, beyond = tail(latencies, workload.tail)
        metrics = {
            "setup_s": statistics.median(setup),
            "op_ms_p50": 1e3 * statistics.median(latencies),
            "op_ms_tail": 1e3 * value,
            "ops_per_s": ops_per_s(latencies),
            "peak_rss_mb": peak_rss_mb(workload.cold),
        }
        detail.update(
            wall={
                "setup_s": statistics.median(setup_wall),
                "op_ms_p50": 1e3 * statistics.median(plain.wall),
                "op_ms_tail": 1e3 * tail(plain.wall, workload.tail)[0],
                "ops_per_s": ops_per_s(plain.wall),
            },
            setup_samples_s=setup,
            tail_percentile=workload.tail,
            tail_samples_beyond=beyond,
        )

    attempted = workload.check_ops + sum(len(loop.ops) for loop in loops)
    failed = sum(len(loop.failures) for loop in loops)
    if check_failures:
        failed += workload.check_ops
    failures = check_failures + [f for loop in loops for f in loop.failures]
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    detail["failures"] = failures[:20]
    record = {"environment": env, "metrics": metrics, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        f"{args.workload}: {len(plain.ops)} ops in {busy:.1f} busy s, "
        f"{failed} failed; record in {OUT.relative_to(ROOT) / name}"
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
