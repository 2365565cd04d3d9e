"""Call counting across the package, for tests that pin how often a stage
runs."""

from __future__ import annotations

import importlib
import sys
from collections import Counter


def count_calls(monkeypatch, targets) -> Counter:
    """Count calls to each (module, function) of ``targets``, rebinding the
    counter in every delsarte module that holds the function so that calls
    made inside the package are seen too.

    A dotted function, such as ``("elliptic", "sympy.factor_list")`` or
    ``("singular", "SingularLocus.polynomial")``, is an attribute of an object
    the module holds; it is rebound on that object, under its dotted name.
    """
    calls: Counter = Counter()
    for module_name, _ in targets:  # so that every holder exists below
        importlib.import_module(f"delsarte.{module_name}")
    holders = [
        module
        for name, module in list(sys.modules.items())
        if name == "delsarte" or name.startswith("delsarte.")
    ]
    for module_name, func in targets:
        *path, name = func.split(".")
        owner = importlib.import_module(f"delsarte.{module_name}")
        for attr in path:
            owner = getattr(owner, attr)
        original = getattr(owner, name)

        def counted(*args, _func=func, _original=original, **kwargs):
            calls[_func] += 1
            return _original(*args, **kwargs)

        if path:
            monkeypatch.setattr(owner, name, counted)
            continue
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return calls
