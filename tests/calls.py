"""Call counting across the package, for tests that pin how often a stage
runs."""

from __future__ import annotations

import importlib
import sys
from collections import Counter


def count_calls(monkeypatch, targets) -> Counter:
    """Count calls to each (module, function) of ``targets``, rebinding the
    counter in every delsarte module that holds the function so that calls
    made inside the package are seen too."""
    calls: Counter = Counter()
    for module_name, _ in targets:  # so that every holder exists below
        importlib.import_module(f"delsarte.{module_name}")
    holders = [
        module
        for name, module in list(sys.modules.items())
        if name == "delsarte" or name.startswith("delsarte.")
    ]
    for module_name, func in targets:
        original = getattr(importlib.import_module(f"delsarte.{module_name}"), func)

        def counted(*args, _func=func, _original=original, **kwargs):
            calls[_func] += 1
            return _original(*args, **kwargs)

        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return calls
