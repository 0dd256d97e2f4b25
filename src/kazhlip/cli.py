"""Command-line frontend.

Exit codes: 0 success, 1 domain error, 2 parse/schema error, 3 from
`bound` and `sweep` when the numbers were computed but a hypothesis needed
to interpret them as certified bounds fails (a global fixed point exists).

Real arguments (`t`, `--p`, `--grid`) are read as mpf at the working
precision, rationals (`--schedule`, `--base`) exactly. A numeric option's
value may start with "-" (`--base -3/2`, `--ba -3/2`). Each `main` call runs
at its own precision, which ends with the call.

A command runs only the modules it reads: the library modules are
registered lazily by the package, and this module reads them at call time.
`lip`, `fixed-points` and `limit-diag` compute no reals, so they run
outside the precision scope and never import mpmath.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bounds, figures, groupact, limits, verify
from .errors import (
    DEFAULT_DIGITS,
    DomainError,
    ResourceLimitError,
    SchemaError,
    check_digits,
    env_precision,
)
from .plmap import check_decimal_exponent, format_rational, parse_rational

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", path) from exc


def _load_group(path: str) -> groupact.GeneratorSet:
    return groupact.GeneratorSet.from_json(_read_file(path))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _real(text: str, path: str):
    """A real argument read at the working precision, its decimal exponent
    capped as for rationals."""
    from mpmath import mpf

    check_decimal_exponent(text, path)
    try:
        return mpf(text)
    except (ValueError, ZeroDivisionError):
        pass
    # float also reads "Infinity" and a signed "nan", which a double holds exactly
    try:
        if not math.isfinite(value := float(text)):
            return mpf(value)
    except ValueError:
        pass
    raise SchemaError(f"invalid real number {text.strip()[:40]!r}", path)


def _list(text: str, read, path: str):
    """The comma-separated values of an option, each read by `read`."""
    return [read(tok.strip(), path) for tok in text.split(",") if tok.strip()]


def cmd_value(args) -> int:
    """`phi` and `phi-inv`."""
    from .precision import real_str

    _emit(real_str(getattr(bounds, args.function)(_real(args.t, "t"))), args.out)
    return EXIT_OK


def cmd_phi_table(args) -> int:
    fields = [] if args.grid is None else args.grid.split(":")
    if len(fields) not in (0, 3):
        raise SchemaError(f"expected start:end:step, got {args.grid!r}", "--grid")
    grid = [_real(tok, "--grid") for tok in fields]
    if args.which == "phi-branches":
        table = figures.phi_branch_table(*grid)
    else:
        table = figures.phi_inv_branch_table(*grid)
    if args.format == "svg":
        _emit(figures.render_svg(table), args.out)
    else:
        _emit(table.to_csv(), args.out)
    return EXIT_OK


def cmd_lip(args) -> int:
    S = _load_group(args.input)
    payload = {"group_name": S.name, **groupact.lipschitz_obj(*S.lipschitz_data())}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"group: {S.name}"]
        for row in payload["per_generator"]:
            lines.append(
                f"  {row['label']}: Lip = {row['lip']}, displacement = {row['displacement']}"
            )
        lines.append(f"L = {payload['L']}, M = {payload['M']}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    S = _load_group(args.input)
    fixed = groupact.global_fixed_set(S)
    text = fixed.format("fixed_set")
    verdict = "empty" if fixed.is_empty else "nonempty"
    if args.format == "json":
        payload = {
            "group_name": S.name,
            "verdict": verdict,
            "fixed_set": text,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(f"global fixed set: {text}\nverdict: {verdict}", args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    """`bound`, and `sweep`, which is `bound --format csv`."""
    from .precision import real_str

    S = _load_group(args.input)
    p_list = _list(args.p, _real, "p") if args.p else None
    schedule = _list(args.schedule, parse_rational, "schedule") if args.schedule else None
    report = bounds.bound_report(S, p_list=p_list, n_schedule=schedule)
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    elif args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        lines = [
            f"group: {report.group_name}",
            f"L = {format_rational(report.L, 'L')}, M = {format_rational(report.M, 'M')}",
            f"hypothesis (no global fixed point): "
            f"{'ok' if report.hypothesis_ok else 'VIOLATED'}",
            f"analytic bound (L^2 window limit): {real_str(report.lemma41_bound)}",
            f"analytic bound (p -> oo limit):    {real_str(report.lemma43_bound)}",
            f"phi_inv(L):                        {real_str(report.phi_inv_of_L)}",
            f"headline kappa upper bound:        {real_str(report.headline)}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK if report.hypothesis_ok else EXIT_HYPOTHESIS


def cmd_limit_diag(args) -> int:
    seq = limits.ActionSequence.from_json(_read_file(args.input))
    words = [groupact.Word.parse(tok) for tok in (args.words or "").split(",") if tok.strip()]
    if not words:
        words = [groupact.Word(((lab, 1),)) for lab in seq.labels]
    base = parse_rational(args.base, "base")
    tol = limits.DEFAULT_CAUCHY_TOL if args.tol is None else args.tol
    diag = limits.limit_translation_diagnostic(seq, words, base, cauchy_tol=tol)
    text = diag.to_csv() if args.format == "csv" else json.dumps(diag.to_obj(), indent=2)
    _emit(text, args.out)
    return EXIT_OK


# Each `verify` suite and the functions of kazhlip.verify it runs, in order
SUITES = {
    "group-axioms": ("suite_group_axioms", "suite_homothety"),
    "koopman": ("suite_koopman", "suite_escape"),
    "mazur": ("suite_mazur",),
    "lemmas": ("suite_lemmas",),
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [r for key in names for suite in SUITES[key] for r in getattr(verify, suite)()]
    lines = []
    for name, cases, failures, worst in results:
        status = "pass" if failures == 0 else "FAIL"
        extra = "" if worst is None else f", worst slack {worst:.3e}"
        lines.append(f"[{status}] {name}: {cases} cases, {failures} failures{extra}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK if all(failures == 0 for _, _, failures, _ in results) else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kazhlip",
        description="Exact PL homeomorphisms of the line, Koopman L^p "
        "actions, and Kazhdan-constant upper bounds.",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=None,
        help="significant decimal digits for real arithmetic (>= 15; "
        "default from KAZHLIP_PRECISION or 30)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("text", "json")):
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", default=fmt_choices[0], choices=fmt_choices)

    for name, help_text, function in (
        ("phi", "evaluate the lower-bound function phi(t)", "phi"),
        ("phi-inv", "evaluate phi^{-1}(t)", "phi_inv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("t")
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_value, function=function)

    p = sub.add_parser("phi-table", help="emit branch tables for the bound functions")
    p.add_argument(
        "--which",
        choices=("phi-branches", "phi-inv-branches"),
        default="phi-branches",
    )
    p.add_argument("--grid", default=None, help="start:end:step")
    common(p, ("csv", "svg"))
    p.set_defaults(func=cmd_phi_table)

    p = sub.add_parser("lip", help="per-generator Lipschitz/displacement data")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_lip)

    p = sub.add_parser("fixed-points", help="exact global fixed set of a generating set")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_fixed_points)

    for name, help_text, fmts in (
        ("bound", "Kazhdan upper-bound report", ("text", "json", "csv")),
        ("sweep", "per-(p, n) sweep as CSV", ("csv",)),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input")
        p.add_argument("--p", default=None, help="comma-separated exponents (>= 2)")
        p.add_argument(
            "--schedule", default=None, help="comma-separated window radii n"
        )
        common(p, fmts)
        p.set_defaults(func=cmd_bound)

    p = sub.add_parser("limit-diag", help="limit-translation diagnostics for a stage sequence")
    p.add_argument("input")
    p.add_argument("--words", default=None, help="comma-separated words, e.g. 'a,a b,a^-1'")
    p.add_argument("--base", default="0")
    p.add_argument("--tol", type=float, default=None)
    common(p, ("json", "csv"))
    p.set_defaults(func=cmd_limit_diag)

    p = sub.add_parser("verify", help="run the built-in property suites")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=(*SUITES, "all"),
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


# The commands that compute no reals: they run outside the precision scope
EXACT_COMMANDS = (cmd_lip, cmd_fixed_points, cmd_limit_diag)

# The options whose value may be negative. argparse takes a value that starts
# with "-" for an option unless it reads as a plain negative number, as -2
# does but -3/2, -1e-6 and -1:0:1/4 do not.
SIGNED_OPTIONS = ("--grid", "--p", "--schedule", "--base", "--tol")


def _names_signed_option(tok: str) -> bool:
    """Whether tok names one signed option, in full or, as argparse reads
    it, by a prefix of exactly one (`--sched` for `--schedule`)."""
    return len(tok) > 2 and sum(name.startswith(tok) for name in SIGNED_OPTIONS) == 1


def _join_signed_values(argv) -> list:
    """argv with each signed option and a following value that starts with
    a single "-" joined into one "--option=value" token."""
    joined = []
    for tok in argv:
        if joined and _names_signed_option(joined[-1]) and tok[:1] == "-" and tok[:2] != "--":
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        digits = args.precision
        if digits is None:
            digits = env_precision() or DEFAULT_DIGITS
        if args.func in EXACT_COMMANDS:
            check_digits(digits)
            return args.func(args)
        from .precision import precision

        with precision(digits):
            return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
