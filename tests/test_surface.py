"""No library function or method is reached only from tests: the package
or the benchmark refers to each one, public or not, and every method of a
class runs when the commands, the verify suites and the paper's names run.
A test oracle belongs in tests/oracles.py."""

import ast
import importlib
import inspect
from pathlib import Path

from kazhlip import GeneratorSet, ball, bounds, verify
from kazhlip.cli import SUITES
from test_golden import CASES, GOLDEN, run_case

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "kazhlip").glob("*.py"))


def referenced_names(paths) -> set:
    """Every name and attribute that the files read, every imported name,
    and the dotted parts of every string without spaces: `getattr(module,
    name)` and the benchmark's span table name functions by string. A name
    that is only assigned reaches nothing."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if not any(c.isspace() for c in node.value):
                    out.update(node.value.split("."))
    return out


# Public although no command reaches them: the paper's theorem L >= phi(kappa),
# its corollary for orderable groups (acceptance criterion 10) and the
# transfer kappa <= (p/2) d, kept for a reader to check the paper against.
PAPER_NAMES = ("theorem_check", "corollary_bound", "kappa_transfer")


def test_nothing_only_tests_reach():
    reached = referenced_names([*SOURCES, *sorted((ROOT / "benchmarks").glob("*.py"))])
    defined = {
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    unreached = sorted(
        f"{module}:{name}"
        for module, name in defined
        if not name.startswith("__") and name not in PAPER_NAMES and name not in reached
    )
    assert unreached == []


def test_only_names_that_are_read_count(tmp_path):
    source = tmp_path / "sample.py"
    # a local `scale = ...` alone reaches no function named scale
    source.write_text("scale = 2\nobj.shift = 1\ndel obj.gone\n")
    assert referenced_names([source]) == {"obj"}
    source.write_text("scale = 2\nobj.shift = scale\nprint(obj.width)\n")
    assert referenced_names([source]) == {"scale", "obj", "print", "width"}


def class_methods():
    """(module, class, method) for every method that a class in the package
    defines, dunders aside."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield path.stem, node.name, item.name


def recording(entered, key, attr):
    """`attr`, a function, staticmethod, classmethod or property as the
    class holds it, adding `key` to `entered` on every call."""

    def wrap(f):
        def wrapper(*args, **kwargs):
            entered.add(key)
            return f(*args, **kwargs)

        return wrapper

    if isinstance(attr, property):
        return property(wrap(attr.fget), attr.fset, attr.fdel)
    if isinstance(attr, (staticmethod, classmethod)):
        return type(attr)(wrap(attr.__func__))
    return wrap(attr)


# Looked up by benchmarks/tracer.py at install, and reached by nothing else.
TRACER_ONLY = {"PLHomeo.slope_at"}


def test_every_method_runs(monkeypatch):
    """The name check above resolves a name, not a method of one class:
    `to_obj` on one class keeps a `to_obj` on another alive. So each method
    is patched on its class and must be entered by the golden commands, the
    verify suites, `ball` (the benchmark's exact-group entry point) or the
    paper's names."""
    entered, methods = set(), []
    for module, cls_name, name in class_methods():
        cls = getattr(importlib.import_module(f"kazhlip.{module}"), cls_name)
        key = f"{cls_name}.{name}"
        monkeypatch.setattr(cls, name, recording(entered, key, vars(cls)[name]))
        methods.append(key)
    for suite, case in CASES:
        run_case(suite, case["argv"])
    for names in SUITES.values():
        for name in names:
            suite = getattr(verify, name)
            suite(3) if "cases" in inspect.signature(suite).parameters else suite()
    S = GeneratorSet.from_json((GOLDEN / "bound" / "inputs" / "bump_t.json").read_text())
    ball(S, 2)
    bounds.theorem_check(S, 0)
    bounds.corollary_bound(2)
    bounds.kappa_transfer(2, 0)
    assert sorted(set(methods) - entered - TRACER_ONLY) == []
    assert TRACER_ONLY <= set(methods)
