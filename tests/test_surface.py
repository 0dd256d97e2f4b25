"""No library function or method is reached only from tests: the package
or the benchmark refers to each one, public or not. A test oracle belongs in
tests/oracles.py."""

import ast
from pathlib import Path

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
