"""Spans around calls into delsarte's public functions, recorded from outside.

``Tracer.install`` wraps every function in ``TARGETS`` and rebinds the
wrapper in every ``delsarte.*`` module that holds the same function object,
so calls the package makes internally are counted as well as calls from the
command line layer.  ``sympy.groebner`` is wrapped on the ``sympy`` module,
which is where ``delsarte.singular`` looks it up.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children: the package is single-threaded here, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict

# (module, function) pairs whose calls are recorded; the layer is the module.
TARGETS = (
    ("model", "surface_from_json"),
    ("reduction", "reduce_to_minimal"),
    ("reduction", "plane_model"),
    ("singular", "singular_locus"),
    ("singular", "structure_decomposition"),
    ("singular", "classify_trichotomy"),
    ("singular", "discriminant_oracle"),
    ("singular", "oracle_matches_locus"),
    ("elliptic", "genus_one_weierstrass"),
    ("elliptic", "weierstrass_invariants"),
    ("elliptic", "kodaira_type"),
    ("elliptic", "fastenberg_check"),
    ("sympy", "groebner"),
    ("shioda", "picard_family"),
    ("shioda", "excluded_fractions"),
    ("shioda", "gs_hodge_counts"),
    ("shioda", "shioda_vectors"),
    ("shioda", "enumerate_L0"),
    ("shioda", "lambda_membership"),
    ("shioda", "exhaustive_sums"),
)

# Spans whose self time is the serialization layer's own time.
CLI_SPANS = ("cli.run_analyze", "cli.run_picard", "cli.json.dumps")

OP_SPAN = "op"


def _module(short: str):
    name = short if short == "sympy" else f"delsarte.{short}"
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Records nested spans; one instance per run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.op_id = -1

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), 0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def run_op(self, op_id: int, fn, *args, **kwargs):
        self.op_id = op_id
        return self.span(OP_SPAN, fn, *args, **kwargs)

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper, holders) -> None:
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def install(self) -> None:
        """Wrap every target the program still has; note the ones it lacks."""
        holders = [
            m
            for name, m in sorted(sys.modules.items())
            if (name == "delsarte" or name.startswith("delsarte."))
            and isinstance(m, types.ModuleType)
        ]
        for short, func in TARGETS:
            module = _module(short)
            original = getattr(module, func, None) if module else None
            if not callable(original):
                self.absent.append(f"{short}.{func}")
                continue
            wrapper = self.wrap(f"{short}.{func}", original)
            self._rebind(original, wrapper, [module, *holders])
        cli = sys.modules.get("delsarte.cli")
        if cli is None:
            return
        for func in ("run_analyze", "run_picard"):
            original = getattr(cli, func, None)
            if callable(original):
                self._rebind(original, self.wrap(f"cli.{func}", original), [cli])
            else:
                self.absent.append(f"cli.{func}")
        real_json = getattr(cli, "json", None)
        if isinstance(real_json, types.ModuleType):
            proxy = types.ModuleType(real_json.__name__)
            proxy.__dict__.update(vars(real_json))
            proxy.dumps = self.wrap("cli.json.dumps", real_json.dumps)
            self._undo.append((cli, "json", real_json))
            cli.json = proxy

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"absent": self.absent, "spans": self.spans}, handle)


def self_times(spans) -> dict[str, tuple[int, int, int]]:
    """name -> (calls, self nanoseconds, ops with a call); children are
    subtracted from their parents."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    ops: dict[str, set] = defaultdict(set)
    for index, (name, start, end, _, op) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[index]
        ops[name].add(op)
    return {name: (calls[name], self_ns[name], len(ops[name])) for name in calls}


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """The per-layer metrics of one traced loop of ``ops`` ops.

    A function the program lacks, or that no op called, reads 0.
    ``calls_per_op`` divides by the ops that called the function at all, so
    it counts recomputation within one op.
    """
    totals = self_times(spans)
    metrics: dict[str, float] = {}
    for short, func in TARGETS:
        calls, ns, _ = totals.get(f"{short}.{func}", (0, 0, 0))
        metrics[f"{short}.{func}.calls"] = calls
        metrics[f"{short}.{func}.self_ms"] = ns / 1e6
    for name in ("reduction.plane_model", "elliptic.weierstrass_invariants"):
        calls, _, calling_ops = totals.get(name, (0, 0, 0))
        metrics[f"{name}.calls_per_op"] = calls / max(calling_ops, 1)
    metrics["cli.self_ms"] = sum(totals.get(n, (0, 0, 0))[1] for n in CLI_SPANS) / 1e6
    metrics["trace.ops"] = ops
    return metrics
