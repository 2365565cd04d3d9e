"""Which modules each command loads, and what the command line may import.

No package module imports sympy: every stage, the genus-one section and the
--verify elimination oracle included, runs on ``exact.QPoly`` and the
standard library, and sympy serves the tests alone as a second
implementation.  The stage modules are lazy: the package and ``cli.py``
import none of them up front, and each command loads only the ones it runs.
The process tests here run a fresh ``python -X importtime -m delsarte.cli``
(or ``-c "import delsarte.cli"``) and read the modules it imported from the
import-time report on stderr, so the entry point is exercised exactly as a
user runs it.  The pinned stdout hashes are the bytes these commands printed
when the genus-one section and the oracle still ran on sympy.  Printing
needs no sympy at all: ``exact``'s printers write every polynomial and j.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delsarte
from delsarte import cli

SRC = Path(delsarte.__file__).resolve().parents[1]

WORKED_CUBIC = '{"monomials": [[0,2,0,1],[3,0,0,0],[2,0,0,1],[0,0,1,2]]}'
HESSE_PENCIL = '{"monomials": [[3,0,0,0],[0,3,0,0],[0,0,0,3],[1,1,1,0]]}'
ISOTRIVIAL = '{"monomials": [[5,0,0,0],[0,5,0,0],[0,4,0,1],[0,4,1,0]]}'
GENUS_TWO = '{"monomials": [[0,2,0,3],[5,0,0,0],[1,0,0,4],[0,0,1,4]]}'


def run_python(*args: str) -> tuple[int, str, set[str]]:
    """(exit code, stdout, names of the modules imported) of one
    ``python -X importtime`` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, proc.stdout, imported


def run_entry_point(*argv: str) -> tuple[int, str, set[str]]:
    """``run_python`` of the command line ``delsarte *argv``."""
    return run_python("-m", "delsarte.cli", *argv)


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (("picard", "--p", "11", "--a", "1", "--hodge", "--excluded"), None),
        (("analyze", HESSE_PENCIL), None),
        (("analyze", ISOTRIVIAL), None),
        (("analyze", GENUS_TWO), None),
        (
            ("analyze", WORKED_CUBIC),
            "32b150728a5ba2d74564deb2994863f30f714e05c193c5d1f99057d3e755a84f",
        ),
    ],
    ids=["picard", "semistable_away", "isotrivial", "higher_genus", "genus_one"],
)
def test_integer_stages_run_without_sympy(argv, sha256):
    code, out, imported = run_entry_point(*argv)
    assert code == 0, out
    # the report was read: each command loads the stage module that ends it
    route = "delsarte.shioda" if argv[0] == "picard" else "delsarte.singular"
    assert route in imported
    assert "sympy" not in imported
    # the one genus-one surface here keeps the bytes it printed on sympy
    assert ("genus_one" in json.loads(out)) == (sha256 is not None)
    if sha256 is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


# the modules a command may import lazily, one per stage of the pipeline
STAGES = (
    "analysis", "model", "reduction", "singular", "elliptic", "shioda", "oracle"
)


def package(*names: str) -> set[str]:
    return {f"delsarte.{name}" for name in names}


# no process needs these: the records are NamedTuples, and dataclasses
# would pull in inspect, ast, dis and tokenize
UNUSED = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "args, loads, skips",
    [
        (("-c", "import delsarte.cli"), set(), package(*STAGES) | UNUSED),
        (
            ("-m", "delsarte.cli", "picard", "--p", "7", "--a", "2"),
            package("shioda"),
            package(
                "analysis", "model", "reduction", "singular", "elliptic", "oracle",
                "exact",
            )
            | UNUSED,
        ),
        (
            ("-m", "delsarte.cli", "picard", "--p", "7", "--a", "2", "--excluded"),
            package("shioda", "exact"),
            package("analysis", "model", "reduction", "singular", "elliptic", "oracle")
            | UNUSED,
        ),
        (
            ("-m", "delsarte.cli", "analyze", HESSE_PENCIL),
            package("analysis", "model", "reduction", "singular"),
            package("elliptic", "shioda", "oracle") | UNUSED,
        ),
        (
            ("-m", "delsarte.cli", "analyze", WORKED_CUBIC),
            package("analysis", "elliptic"),
            package("shioda", "oracle") | UNUSED,
        ),
        (
            ("-m", "delsarte.cli", "analyze", HESSE_PENCIL, "--shioda"),
            package("analysis", "shioda"),
            package("elliptic", "oracle") | UNUSED,
        ),
        (
            ("-m", "delsarte.cli", "analyze", HESSE_PENCIL, "--verify"),
            package("analysis", "oracle", "exact"),
            package("elliptic", "shioda") | UNUSED | {"sympy"},
        ),
    ],
    ids=[
        "import_cli", "picard", "picard_excluded", "analyze", "analyze_genus_one",
        "analyze_shioda", "analyze_verify",
    ],
)
def test_each_entry_loads_only_the_modules_it_runs(args, loads, skips):
    # with PYTHONDONTWRITEBYTECODE=1 a fresh process compiles every module
    # it imports, so a module a command does not run costs it start-up time
    code, out, imported = run_python(*args)
    assert code == 0, out
    assert loads <= imported
    assert not skips & imported, sorted(skips & imported)


def test_the_package_lists_its_names_before_loading_them():
    code, out, imported = run_python("-c", "import delsarte; print(*dir(delsarte))")
    assert code == 0, out
    assert set(delsarte.__all__) <= set(out.split())
    assert not package(*STAGES) & imported


def module_level_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports outside its functions and
    classes (``from . import x`` names x)."""
    found = set()
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            found |= {
                alias.name.removeprefix("delsarte.")
                for alias in node.names
                if alias.name.startswith("delsarte.")
            }
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "delsarte":
                continue
            module = module.removeprefix("delsarte").lstrip(".")
            found |= {module} if module else {a.name for a in node.names}
        else:
            stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_entry_modules_import_no_stage_at_module_level(name):
    # the package and the command line load a stage module only when a
    # name or a command needs it; errors is all they import up front
    assert module_level_imports(SRC / "delsarte" / name) <= {"errors"}


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ("analyze", WORKED_CUBIC, "--verify"),
            "e4b4c45531524e17c626165ec571bd738b1a6e45719b86dc8c5976617b1c8735",
        ),
        (
            ("analyze", HESSE_PENCIL, "--verify"),
            "88e78509261d313a4222636461b0420f2f04e0ce51a620b3f2a2470aea67351d",
        ),
    ],
    ids=["verify_genus_one", "verify_semistable_away"],
)
def test_symbolic_stages_load_sympy_and_keep_their_bytes(argv, sha256):
    # the --verify oracle, the last stage that loaded sympy, now runs
    # without it and prints the bytes it printed on sympy
    code, out, imported = run_entry_point(*argv)
    assert code == 0, out
    assert "delsarte.oracle" in imported
    assert "sympy" not in imported
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_every_public_name_resolves():
    for name in delsarte.__all__:
        assert getattr(delsarte, name) is not None, name
    assert delsarte.analyze is sys.modules["delsarte.analysis"].analyze
    assert delsarte.Report is sys.modules["delsarte.analysis"].Report
    with pytest.raises(AttributeError):
        delsarte.no_such_name
    # one pipeline: the genus-one verdict is read off analyze's Report
    assert "fastenberg_check" not in dir(delsarte)
    assert not hasattr(sys.modules["delsarte.elliptic"], "fastenberg_check")


# the stage modules, and the record types of theirs that cli may serialize
STAGE_MODULES = {"reduction", "singular", "elliptic"}
RECORD_TYPES = {"Isotrivial", "Superelliptic", "SemistableAway"}
# what cli may take from shioda: the family's parameters, its one record
# function, and the names of the Hodge levels that key the record
SHIODA_NAMES = {"FamilyParams", "family_report", "HODGE_LEVELS"}


def test_cli_imports_no_stage_function():
    # cli.py serializes what analyze and family_report return; it runs no
    # stage itself
    imported: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name.removeprefix("delsarte."), set())
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("delsarte")
            names = {alias.name for alias in node.names}
            if module in ("", "."):  # from . import singular
                for name in names:
                    imported.setdefault(name, set())
            else:
                imported.setdefault(module.lstrip("."), set()).update(names)
    assert "analyze" in imported["analysis"]
    for module in STAGE_MODULES & set(imported):
        assert imported[module] and imported[module] <= RECORD_TYPES, module
    assert "family_report" in imported["shioda"]
    assert imported["shioda"] <= SHIODA_NAMES


def test_cli_does_no_arithmetic():
    # every number cli prints is computed in the library; cli only maps
    # fields to keys
    tree = ast.parse(Path(cli.__file__).read_text())
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
    ]
    assert not lines, f"cli.py has arithmetic operators on lines {lines}"


def unreached_definitions(trees) -> set[str]:
    """``file: name`` of each top-level function or class, and each method
    or property of a package class, in the (file, module tree) pairs
    ``trees``, that no code of theirs reaches and the package does not
    export (a dunder such as the package's __getattr__ or QPoly's __add__
    is called by the interpreter).

    A function, a class or a property is reached where its name is read, as
    a name or as an attribute of any object.  A method is reached only
    where it is called, ``x.name(...)``, or named on a class, ``Class.name``
    as in ``reduce(QPoly.gcd, ...)``: a field read such as ``.terms`` does
    not reach a method of that name.  A definition is not its own caller.
    """
    trees = list(trees)
    classes = {
        top.name
        for _, tree in trees
        for top in tree.body
        if isinstance(top, ast.ClassDef)
    }

    def reads(node, *own):
        found = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        found |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        return found - set(own)

    def calls(node, *own):
        found = {
            n.func.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        }
        found |= {
            n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in classes
        }
        return found - set(own)

    defined, read, called = set(), set(), set()

    def scan(node, *own):
        read.update(reads(node, *own))
        called.update(calls(node, *own))

    for file, tree in trees:
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                scan(top)
                continue
            defined.add((file, top.name, top.name, False))
            if isinstance(top, ast.FunctionDef):
                scan(top, top.name)
                continue
            for header in (*top.bases, *top.keywords, *top.decorator_list):
                scan(header)
            for member in top.body:
                if isinstance(member, ast.FunctionDef):
                    method = not any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in member.decorator_list
                    )
                    qualified = f"{top.name}.{member.name}"
                    defined.add((file, qualified, member.name, method))
                    scan(member, top.name, member.name)
                else:
                    scan(member, top.name)
    return {
        f"{file}: {qualified}"
        for file, qualified, name, method in defined
        if name not in (called if method else read)
        and name not in delsarte._EXPORTS
        and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_package_function_has_a_package_caller_or_an_export():
    # no test-only API: every definition of the package is reached by
    # package code or exported
    unreached = unreached_definitions(package_trees())
    assert not unreached, sorted(unreached)


def test_a_field_read_does_not_reach_a_method_of_its_name():
    # SuperellipticForm.terms and AffineEquation.terms are fields that the
    # package reads as .terms; a test-only QPoly.terms() method added to
    # exact.py is still unreached, while the package's own methods are not
    trees = dict(package_trees())
    assert any(
        isinstance(node, ast.Attribute) and node.attr == "terms"
        for name in ("cli.py", "reduction.py", "elliptic.py")
        for node in ast.walk(trees[name])
    )
    qpoly = next(
        top
        for top in trees["exact.py"].body
        if isinstance(top, ast.ClassDef) and top.name == "QPoly"
    )
    qpoly.body.append(ast.parse("def terms(self):\n    return self.coeffs\n").body[0])
    assert unreached_definitions(trees.items()) == {"exact.py: QPoly.terms"}


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from delsarte import *", namespace)
    assert set(delsarte.__all__) <= set(namespace)
    assert namespace["plane_model"] is sys.modules["delsarte.reduction"].plane_model


def test_no_module_prints_through_sympy_expressions():
    # the report prints its QPolys with exact.format_polynomial and
    # exact.format_quotient; sympy's str of .as_expr() is left to the tests
    # as the printers' oracle
    for path in sorted((SRC / "delsarte").glob("*.py")):
        calls = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "as_expr"
        ]
        assert not calls, f"{path.name} calls .as_expr( on lines {calls}"


def test_no_dataclass_default_is_a_container():
    # a record is a NamedTuple, which shares a list, dict or set default
    # across every instance without an error, so a default must be immutable
    import importlib

    with_defaults = set()
    for path in sorted((SRC / "delsarte").glob("*.py")):
        module = importlib.import_module(f"delsarte.{path.stem}")
        for name, value in vars(module).items():
            if not (isinstance(value, type) and issubclass(value, tuple)):
                continue
            for field, default in getattr(value, "_field_defaults", {}).items():
                with_defaults.add(name)
                assert not isinstance(default, (list, dict, set)), (
                    f"{path.name}: {name}.{field}"
                )
    assert {"WeierstrassModel", "SingularLocus", "Report"} <= with_defaults


def package_trees():
    for path in sorted((SRC / "delsarte").glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_no_module_imports_dataclasses():
    # building a frozen dataclass execs its methods, and the module pulls in
    # inspect; the records are NamedTuples, which a cold process makes cheaply
    for name, tree in package_trees():
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if (
                isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
            )
            or (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").split(".")[0] == "dataclasses"
            )
        ]
        assert not lines, f"{name} imports dataclasses on lines {lines}"


def test_no_package_module_imports_sympy():
    # sympy is a test dependency only: no module imports it, not even for
    # annotations
    for name, tree in package_trees():
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if (
                isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "sympy" for a in node.names)
            )
            or (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").split(".")[0] == "sympy"
            )
        ]
        assert not lines, f"{name} imports sympy on lines {lines}"


def test_no_float_in_the_package():
    # every decision is exact: math lends only its integer functions (no
    # ceil of a true quotient, no sqrt), and no module names float
    for name, tree in package_trees():
        from_math = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module == "math"
            for alias in node.names
        }
        from_math |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        }
        assert from_math <= {"gcd", "lcm", "isqrt"}, (name, sorted(from_math))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "float"
        ]
        assert not lines, f"{name} names float on lines {lines}"


def test_no_assert_statement_in_the_package():
    # checks of mathematical claims raise AssertionError, so that they hold
    # under python -O, where assert statements are stripped
    for name, tree in package_trees():
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{name} has assert statements on lines {lines}"


def caught_error_classes(tree: ast.Module) -> dict[int, set[str]]:
    """The ``delsarte.errors`` classes that each ``except`` of a module
    names, by line; a class imported under another name is read back to its
    own, and ``errors.X`` counts as X."""
    classes, modules = {}, set()  # local names of errors' classes, and of errors
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.level, node.module) in ((1, "errors"), (0, "delsarte.errors")):
            classes.update({a.asname or a.name: a.name for a in node.names})
        elif (node.level, node.module) in ((1, None), (0, "delsarte")):
            modules.update(a.asname or a.name for a in node.names if a.name == "errors")
    caught = {}
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        names = set()
        for node in ast.walk(handler.type):
            if isinstance(node, ast.Name) and node.id in classes:
                names.add(classes[node.id])
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                names.add(node.attr)
        if names:
            caught[handler.lineno] = names
    return caught


def test_each_error_class_is_one_exit_code_and_no_control_flow():
    # cli.main tells every class of errors apart, each by its exit code, and
    # nothing else catches one: an error ends the run, it never steers it
    from delsarte import errors

    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.DelsarteError)
        and value is not errors.DelsarteError
    }
    assert classes
    for name, tree in package_trees():
        caught = caught_error_classes(tree)
        if name == "cli.py":
            main = next(
                node
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main"
            )
            in_main = {
                line: caught.pop(line)
                for line in range(main.lineno, main.end_lineno + 1)
                if line in caught
            }
            assert classes <= set().union(*in_main.values())
        assert not caught, f"{name} catches {caught}"
