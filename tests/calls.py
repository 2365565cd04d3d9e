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

    A dotted function, such as ``("singular", "SingularLocus.polynomial")``,
    is an attribute of an object the module holds; it is rebound on that
    object, under its dotted name.  A module outside the package is named in
    full, as in ``("sympy", "factor_list")`` or
    ``("sympy.polys.rings", "PolyElement.sqf_part")``, and its function is
    rebound on it, so calls through ``sympy.factor_list`` are seen.
    """
    calls: Counter = Counter()
    owners = [_module(module_name) for module_name, _ in targets]
    holders = [  # imported above, so every holder exists
        module
        for name, module in list(sys.modules.items())
        if name == "delsarte" or name.startswith("delsarte.")
    ]
    for owner, (module_name, func) in zip(owners, targets):
        *path, name = func.split(".")
        for attr in path:
            owner = getattr(owner, attr)
        original = getattr(owner, name)

        def counted(*args, _func=func, _original=original, **kwargs):
            calls[_func] += 1
            return _original(*args, **kwargs)

        if path or not owner.__name__.startswith("delsarte"):
            monkeypatch.setattr(owner, name, counted)
            continue
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return calls


def _module(name: str):
    """delsarte.<name>, or the module ``name`` outside the package."""
    if name.split(".")[0] == "sympy":
        return importlib.import_module(name)
    return importlib.import_module(f"delsarte.{name}")
