"""The input contract: the readers of JSON input raise only the package's
own errors, and a `kazhlip` call ends with exit 0, 1, 2 or 3, never with a
traceback or with `nan` printed under exit 0 (both fuzzed); and a library
call given an argument it cannot read exactly, or as a real, raises
DomainError naming the argument."""

import contextlib
import io
import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from kazhlip import (
    ActionSequence,
    DomainError,
    GeneratorSet,
    PLHomeo,
    ResourceLimitError,
    SchemaError,
    StepFunction,
    Word,
    ball,
    bound_report,
    limit_translation_diagnostic,
    log_power_bound_check,
    lp_norm,
    mazur_map,
    normalize,
    phi,
)
from kazhlip.cli import main
from kazhlip.figures import phi_branch_table, phi_inv_branch_table
from kazhlip.plmap import format_rational, parse_rational
from oracles import indicator

CONTRACT = (SchemaError, DomainError, ResourceLimitError)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
rationals = (
    st.integers(-50, 50)
    | st.integers(-50, 50).map(str)
    | st.fractions(-50, 50, max_denominator=12).map(str)
    | st.floats()
    | st.sampled_from(
        ["1e4300", "1e4301", "-1e-4300", "1_0", "1/0", "0x10", " 3 ", "", "nan", "inf", "1e999"]
    )
)


@st.composite
def increasing_nodes(draw):
    size = draw(st.integers(1, 4))
    coords = st.lists(
        st.fractions(-8, 8, max_denominator=4), min_size=size, max_size=size, unique=True
    )
    return [[str(x), str(y)] for x, y in zip(sorted(draw(coords)), sorted(draw(coords)))]


valid_maps = st.fixed_dictionaries({"nodes": increasing_nodes()})
maps = (
    valid_maps
    | st.fixed_dictionaries(
        {"nodes": st.lists(st.lists(rationals, min_size=2, max_size=2) | json_values, max_size=4)}
    )
    | json_values
)
# Names and labels without "nan", which a successful call prints
names = st.sampled_from(["g", "a", "b", "t", "x'", "a b", "^-1", "e", "", "a,b"]) | st.text(
    "abt '^-1,*", max_size=4
)
letters = st.lists(st.sampled_from("abt"), min_size=1, max_size=3, unique=True)


@st.composite
def valid_sets(draw):
    generators = [{"label": lab, "map": draw(valid_maps)} for lab in draw(letters)]
    return {"name": "g", "generators": generators}


generator_sets = valid_sets() | st.fixed_dictionaries(
    {"generators": st.lists(st.fixed_dictionaries({"label": names, "map": maps}), max_size=3)},
    optional={"name": names | json_values, "symmetric": st.booleans() | json_values},
)


@st.composite
def action_sequences(draw):
    """Stages over one alphabet half of the time, anything else otherwise."""
    if draw(st.booleans()):
        labels = draw(letters)
        stages = [
            {"generators": [{"label": lab, "map": draw(valid_maps)} for lab in labels]}
            for _ in range(draw(st.integers(1, 3)))
        ]
    else:
        labels = draw(st.lists(names, max_size=3))
        stages = draw(st.lists(generator_sets | json_values, max_size=3))
    return {"labels": labels, "stages": stages}


FUZZ = settings(max_examples=100, deadline=None)


class TestReaders:
    @FUZZ
    @given(maps)
    def test_map(self, obj):
        with contextlib.suppress(*CONTRACT):
            PLHomeo.from_obj(obj)

    @FUZZ
    @given(generator_sets | json_values)
    def test_generator_set(self, obj):
        with contextlib.suppress(*CONTRACT):
            GeneratorSet.from_obj(obj)

    @FUZZ
    @given(action_sequences() | json_values)
    def test_action_sequence(self, obj):
        with contextlib.suppress(*CONTRACT):
            ActionSequence.from_obj(obj)

    @pytest.mark.parametrize("text", ["{", "[1,]", "NaN", "1" * 5000, ""])
    def test_not_json(self, text):
        with pytest.raises(SchemaError):
            GeneratorSet.from_json(text)
        with pytest.raises(SchemaError):
            ActionSequence.from_json(text)


reals = st.sampled_from(
    ["0", "0.1", "1", "1.4", "2", "10.3", "-1", "-3/2", "1/2", "1e-30", "1e100", "1e4301",
     "nan", "-nan", "inf", "Infinity", "abc", ""]
) | st.floats().map(repr)


def csv_of(tokens):
    return st.lists(st.sampled_from(tokens), max_size=3).map(",".join)


options = {
    "--precision": st.sampled_from(["15", "30", "14", "0", "-5", "x", "1e2"]),
    "--p": csv_of(["2", "4", "5/2", "1", "0", "-2", "nan", "inf", "1e100", "x", ""]),
    "--schedule": csv_of(["1", "1/2", "-1/2", "0", "3", "1e4300", "-1e4300", "1e-4300", "x"]),
    "--grid": st.sampled_from(
        ["0:1:0.5", "0:1.4:0.1", "-1:0:0.5", "0:1:0", "0:1:1e-40", "0:1:1e-9", "1:0:0.1",
         "0:1", "nan:1:0.1", "0:1e4301:1", "1:4:1"]
    ),
    "--words": csv_of(["a", "b", "a b^-1", "g g", "x", "e", "'", "a^-1"]),
    "--base": st.sampled_from(["0", "1/2", "-3/2", "1e4301", "x", "nan"]),
    "--tol": st.sampled_from(["1e-6", "0", "-1", "nan", "inf", "x"]),
    "--format": st.sampled_from(["text", "json", "csv", "svg", "xml"]),
    "--which": st.sampled_from(["phi-branches", "phi-inv-branches", "phi"]),
}
COMMANDS = {
    "phi": (["t"], ()),
    "phi-inv": (["t"], ()),
    "phi-table": ([], ("--grid", "--which", "--format")),
    "lip": (["FILE"], ("--format",)),
    "fixed-points": (["FILE"], ("--format",)),
    "bound": (["FILE"], ("--p", "--schedule", "--format")),
    "sweep": (["FILE"], ("--p", "--schedule")),
    "limit-diag": (["FILE"], ("--words", "--base", "--tol", "--format")),
}


@st.composite
def calls(draw):
    """An argv for `kazhlip`, and the JSON document its FILE holds."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, allowed = COMMANDS[command]
    argv = ["--precision", draw(options["--precision"])] if draw(st.booleans()) else []
    argv.append(command)
    argv += [draw(reals) if arg == "t" else "FILE" for arg in positional]
    for option in draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else ():
        argv += [option, draw(options[option])]
    if draw(st.integers(0, 9)) == 0:  # a stray token
        argv.append(draw(st.sampled_from(["--bogus", "-", "extra", "--p"])))
    doc = draw(action_sequences() if command == "limit-diag" else generator_sets | json_values)
    return argv, doc


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


class TestCommandLine:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(calls())
    def test_exit_codes(self, input_file, call):
        argv, doc = call
        input_file.write_text(json.dumps(doc))
        argv = [str(input_file) if tok == "FILE" else tok for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage error
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert "nan" not in out.getvalue().lower(), argv


BUMP = PLHomeo(((0, 0), (1, F(3, 2)), (2, 2)))
BUMP_T = GeneratorSet("bump-translation", (("a", BUMP), ("t", PLHomeo.translation(1))))
SEQUENCE = ActionSequence(("g",), (GeneratorSet("s", (("g", BUMP),)),))
G = Word((("g", 1),))

# Every entry point that reads an exact argument, by the name its error gives
EXACT_ARGUMENTS = {
    "from_pairs": ("nodes[1][0]", lambda v: PLHomeo.from_pairs([(0, 0), (v, 2), (3, 3)])),
    "translation": ("c", PLHomeo.translation),
    "evaluate": ("x", BUMP.evaluate),
    "__call__": ("x", BUMP),
    "slope_at": ("x", BUMP.slope_at),
    "conjugate_by_homothety": ("alpha", BUMP.conjugate_by_homothety),
    "bound_report": ("schedule[1]", lambda v: bound_report(BUMP_T, [2], [1, v])),
    "limit_translation_diagnostic": (
        "base", lambda v: limit_translation_diagnostic(SEQUENCE, [G], base=v)
    ),
}


class TestExactArguments:
    @pytest.mark.parametrize("value", [0.1, mpf(1), None, float("nan")], ids=repr)
    @pytest.mark.parametrize("entry", EXACT_ARGUMENTS)
    def test_inexact_value_named(self, entry, value):
        name, call = EXACT_ARGUMENTS[entry]
        with pytest.raises(DomainError) as err:
            call(value)
        assert str(err.value).startswith(f"{name}: expected an int or a Fraction")

    def test_ints_and_fractions(self):
        assert PLHomeo.translation(1).nodes == ((0, 1),)
        assert PLHomeo.translation(F(-1, 2)).nodes == ((0, F(-1, 2)),)
        assert [BUMP.evaluate(x) for x in (1, F(1, 2), -1, 3)] == [F(3, 2), F(3, 4), -1, 3]
        assert BUMP(F(3, 2)) == F(7, 4)
        assert [BUMP.slope_at(x) for x in (-1, 0, F(3, 2), 2)] == [1, F(3, 2), F(1, 2), 1]
        assert BUMP.conjugate_by_homothety(2).nodes == ((0, 0), (F(1, 2), F(3, 4)), (1, 1))
        assert BUMP.conjugate_by_homothety(F(1, 2)).nodes == ((0, 0), (2, 3), (4, 4))
        ints = bound_report(BUMP_T, [2, 4], [1, 3])
        assert ints.sweep == bound_report(BUMP_T, [2, 4], [F(1), F(3)]).sweep
        assert limit_translation_diagnostic(SEQUENCE, [G], base=1) == limit_translation_diagnostic(
            SEQUENCE, [G], base=F(1)
        )

    def test_from_pairs_keeps_int_coordinates(self):
        g = PLHomeo.from_pairs([(0, 0), (1, F(3, 2)), (2, 2)])
        assert g == BUMP
        assert [type(c) for node in g.nodes for c in node] == [int, int, int, F, int, int]


XI = indicator(0, 1, 2)


class TestRealArguments:
    """A real argument is read as an mpf; one that mpf cannot read, or a
    nan or an infinity where a finite real is needed, raises DomainError
    naming it."""

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda: lp_norm(XI, "abc"), "p: expected a real"),
            (lambda: lp_norm(XI, None), "p: expected a real"),
            (lambda: mazur_map(XI, 2, "x"), "p: expected a real"),
            (lambda: mazur_map(XI, "x", 2), "q: expected a real"),
            (lambda: bound_report(BUMP_T, ["abc"]), "p: expected a real"),
            (lambda: phi("abc"), "t: expected a real"),
            (lambda: phi_branch_table("abc"), "start: expected a real"),
            (lambda: phi_branch_table(0, "1.2", None), "step: expected a real"),
        ],
        ids=["lp_norm_text", "lp_norm_none", "mazur_map_text", "mazur_map_q_text",
             "bound_report_text", "phi_text", "table_text", "table_none"],
    )
    def test_unreadable_real(self, call, name):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value).startswith(name)

    @pytest.mark.parametrize(
        "q,p,name", [(float("nan"), 2, "q"), (2, float("nan"), "p")], ids=["q_nan", "p_nan"]
    )
    def test_mazur_map_exponent_out_of_range(self, q, p, name):
        with pytest.raises(DomainError, match=rf"must satisfy {name} >= 1, got nan$"):
            mazur_map(XI, q, p)

    @pytest.mark.parametrize(
        "args,name",
        [
            ((1, float("nan"), 2), "p"),
            ((float("nan"), 4, 2), "x"),
            ((1, 4, float("nan")), "L"),
            ((1, float("inf"), 2), "p"),
            ((1, 4, "abc"), "L"),
        ],
        ids=["p_nan", "x_nan", "L_nan", "p_inf", "L_text"],
    )
    def test_log_power_bound_check(self, args, name):
        with pytest.raises(DomainError) as err:
            log_power_bound_check(*args)
        assert re.match(rf"{name}\b", str(err.value))

    def test_log_power_bound_check_finite(self):
        ok, slack = log_power_bound_check(1, 4, 2)
        assert ok and slack > 0

    @pytest.mark.parametrize("radius", [1.5, F(1), None, "2"], ids=repr)
    def test_ball_radius(self, radius):
        with pytest.raises(DomainError, match="^radius must be an int >= 0"):
            ball(BUMP_T, radius)


class TestConstructorChecks:
    """Each check of a constructor or reader on a value it refuses: the
    exception type, and the field or the rule that its message names."""

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: StepFunction((0, 1, 2), (mpf(1), mpf("inf"))), DomainError,
             r"values\[1\]: step function values must be finite$"),
            (lambda: StepFunction((0,), ()), DomainError,
             r"a step function needs at least two breakpoints$"),
            (lambda: StepFunction((0, 1, 2), (mpf(1),)), DomainError,
             r"3 breakpoints require 2 values, got 1$"),
            (lambda: StepFunction((0, 2, 2), (mpf(1), mpf(1))), DomainError,
             r"breakpoints\[2\]: not strictly increasing at 2$"),
            (lambda: normalize(indicator(0, 1, 0), 2), DomainError,
             r"cannot normalize the zero function$"),
            (lambda: parse_rational(True, "nodes[0][1]"), SchemaError,
             r"nodes\[0\]\[1\]: expected a rational, got a boolean$"),
            (lambda: parse_rational(["1"], "nodes[0][0]"), SchemaError,
             r"nodes\[0\]\[0\]: expected a rational string, got list$"),
            (lambda: format_rational(F(10**5000, 3), "L"), ResourceLimitError,
             r"L: the exact rational has more digits than Python prints"),
            (lambda: PLHomeo(()), DomainError, r"a PL map needs at least one node$"),
            (lambda: Word((("a", 1), ("b", 2))), DomainError,
             r"letter exponent must be \+-1, got 2$"),
            (lambda: GeneratorSet("x", ()), DomainError, r"generator set must be nonempty$"),
            (lambda: GeneratorSet.from_json(json.dumps({"generators": [
                {"label": "a", "map": {"nodes": [["0", "1"]]}},
                {"label": ["b"], "map": {"nodes": [["0", "2"]]}},
            ]})), SchemaError, r"generator_set\.generators\[1\]\.label: 'label' must be a string$"),
            (lambda: ActionSequence((), ()), DomainError,
             r"an action sequence needs at least one stage$"),
            (lambda: phi_branch_table(1, "0.5", "0.1"), DomainError,
             r"grid end 0\.5 below start 1\.0$"),
            (lambda: phi_inv_branch_table("0.5", 2, "0.1"), DomainError,
             r"phi_inv grid must stay inside \[1, oo\)$"),
        ],
        ids=[
            "step_value_not_finite", "step_one_breakpoint", "step_value_count",
            "step_breakpoints_not_increasing", "normalize_zero", "rational_bool",
            "rational_list", "format_rational_digits", "plhomeo_no_nodes",
            "letter_exponent", "generator_set_empty", "label_not_string",
            "action_sequence_no_stages", "phi_table_end_below_start", "phi_inv_grid_below_1",
        ],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=f"^{message}"):
            call()
