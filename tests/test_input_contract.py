"""The input contract, fuzzed: the readers of JSON input raise only the
package's own errors, and a `kazhlip` call ends with exit 0, 1, 2 or 3,
never with a traceback or with `nan` printed under exit 0."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kazhlip import (
    ActionSequence,
    DomainError,
    GeneratorSet,
    PLHomeo,
    ResourceLimitError,
    SchemaError,
)
from kazhlip.cli import main

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
