import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

import kazhlip
from kazhlip import GeneratorSet, PLHomeo
from kazhlip.cli import _join_signed_values, main
from kazhlip.precision import precision
from kazhlip.figures import phi_branch_table, phi_inv_branch_table, render_svg
from oracles import set_obj

GOLDEN = Path(__file__).parent / "golden"
# The commands that compute no reals, each with an input under GOLDEN
EXACT_INPUTS = {
    "lip": "bound/inputs/bump_t.json",
    "fixed-points": "bound/inputs/bump_t.json",
    "limit-diag": "limit_diag/inputs/shrinking.json",
}


@pytest.fixture
def translations_file(tmp_path):
    S = GeneratorSet(
        "Z",
        (
            ("t", PLHomeo.translation(1)),
            ("T", PLHomeo.translation(-1)),
        ),
        symmetric=True,
    )
    path = tmp_path / "group.json"
    path.write_text(json.dumps(set_obj(S)))
    return str(path)


@pytest.fixture
def bump_pair_file(tmp_path):
    bump = PLHomeo.from_pairs([(0, 0), (1, 2), (3, 3)])
    S = GeneratorSet("bump", (("b", bump), ("B", bump.invert())), symmetric=True)
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(set_obj(S)))
    return str(path)


@pytest.fixture(autouse=True)
def no_caller_precision(monkeypatch):
    """Every test starts without the caller's KAZHLIP_PRECISION, as the
    golden cases do; a test about the variable sets it itself."""
    monkeypatch.delenv("KAZHLIP_PRECISION", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv):
    """The CLI in a child process, so that a traceback shows on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(kazhlip.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "kazhlip.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def assert_clean_exit_1(proc, field):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and field in proc.stderr
    assert proc.stdout == ""


class TestPhiCommands:
    def test_phi_value(self, capsys):
        code, out, _ = run(capsys, "phi", "1.0")
        assert code == 0
        assert out.startswith("7.389056098930650")

    def test_phi_inv_value(self, capsys):
        code, out, _ = run(capsys, "phi-inv", "2")
        assert code == 0
        assert out.startswith("0.34657359")

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "phi", "1.5")
        assert code == 1 and "error" in err

    def test_non_finite_exit_1(self, capsys):
        for argv in (("phi", "nan"), ("phi", "inf"), ("phi-inv", "nan"), ("phi-inv", "inf"),
                     ("phi", "Infinity"), ("phi-inv", "+nan")):
            code, out, err = run(capsys, *argv)
            assert code == 1 and "finite" in err and out == ""

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "--precision", "20", "phi", "1.0")
        assert code == 0
        code2, out2, _ = run(capsys, "--precision", "40", "phi", "1.0")
        assert len(out2.strip()) > len(out.strip())

    def test_precision_floor(self, capsys):
        code, _, err = run(capsys, "--precision", "5", "phi", "1.0")
        assert code == 1

    def test_precision_env_checked(self, capsys, monkeypatch):
        exact = [(command, str(GOLDEN / path)) for command, path in EXACT_INPUTS.items()]
        for raw in ("abc", "10", "", "1.5"):
            monkeypatch.setenv("KAZHLIP_PRECISION", raw)
            for argv in (("phi", "1.0"), *exact):
                code, out, err = run(capsys, *argv)
                assert code == 1 and "KAZHLIP_PRECISION" in err and out == ""
        monkeypatch.setenv("KAZHLIP_PRECISION", "20")
        code, out, _ = run(capsys, "phi", "1.0")
        assert code == 0 and out.strip() == "7.3890560989306502272"
        monkeypatch.setenv("KAZHLIP_PRECISION", "abc")  # the flag wins
        code, out, _ = run(capsys, "--precision", "16", "phi", "1.0")
        assert code == 0 and out.strip() == "7.389056098930650"


def close_to(text, exact, digits):
    """Whether the printed real `text` is `exact` to `digits` significant
    digits, compared at twice that precision."""
    with precision(2 * digits):
        exact = exact()
        return abs(mpf(text) - exact) <= mpf(10) ** (1 - digits) * abs(exact)


class TestRealArguments:
    """Every real argument is read at the working precision, and the
    precision a call sets ends with the call."""

    @pytest.mark.parametrize("digits", [15, 30, 50])
    def test_phi_value_at_working_precision(self, capsys, digits):
        code, out, _ = run(capsys, "--precision", str(digits), "phi", "0.1")
        assert code == 0 and close_to(out, lambda: mpmath.exp(mpf(1) / 5), digits)
        code, out, _ = run(capsys, "--precision", str(digits), "phi-inv", "10.3")
        assert code == 0 and close_to(out, lambda: mpmath.log(mpf(103) / 10) / 2, digits)

    @pytest.mark.parametrize("digits", [15, 30, 50])
    def test_p_at_working_precision(self, capsys, digits, translations_file):
        code, out, _ = run(capsys, "--precision", str(digits), "bound", translations_file,
                           "--p", "2.1", "--schedule", "1", "--format", "json")
        (cell,) = json.loads(out)["sweep"]
        assert code == 0 and close_to(cell["p"], lambda: mpf(21) / 10, digits)

    def test_precision_ends_with_the_call(self, capsys):
        with precision(40):
            code, out, _ = run(capsys, "--precision", "50", "phi", "1")
            assert code == 0 and len(out.strip()) == 51 and mpmath.mp.dps == 40
            code, out, _ = run(capsys, "phi", "1")
            assert code == 0 and out.strip() == "7.38905609893065022723042746058"
            assert mpmath.mp.dps == 40

    @pytest.mark.parametrize("argv,field", [
        (["phi", "1e400000"], "t"),
        (["phi-inv", "1e" + "9" * 4000], "t"),
        (["phi", "1e4_301"], "t"),
        (["phi-table", "--grid", "0:1:1e-400000"], "--grid"),
        (["bound", "{translations}", "--p", "1e400000"], "p"),
        (["bound", "{translations}", "--p", "2,1e99999l"], "p"),
        (["bound", "{translations}", "--schedule", "1e4_301"], "schedule"),
    ])
    def test_exponent_cap_exit_2(self, capsys, translations_file, argv, field):
        argv = [a.format(translations=translations_file) for a in argv]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 10
        assert code == 2 and f"{field}: decimal exponent" in err and out == ""

    @pytest.mark.parametrize("argv,field", [
        (["phi", "abc"], "t"),
        (["phi-inv", "1/0"], "t"),
        (["phi-table", "--grid", "0:1/0:0.1"], "--grid"),
        (["bound", "{translations}", "--p", "2,x"], "p"),
    ])
    def test_malformed_real_exit_2(self, capsys, translations_file, argv, field):
        argv = [a.format(translations=translations_file) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and f"{field}: invalid real number" in err and out == ""


class TestPhiTable:
    def test_csv_branches(self, capsys):
        code, out, _ = run(capsys, "phi-table", "--which", "phi-branches",
                           "--grid", "0:1.2:0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,exp_branch,rational_branch,max"
        first = lines[1].split(",")
        assert float(first[1]) == 1.0 and float(first[2]) == 1.0

    def test_branch_values_at_point(self):
        table = phi_branch_table("1.2", "1.2", "1")
        (t, b1, b2, _), = table.rows
        assert abs(float(b1) - 11.023) < 1e-2
        assert abs(float(b2) - 12.755) < 1e-2

    def test_inv_branch_values_at_point(self):
        table = phi_inv_branch_table(4, 4, 1)
        (t, b1, b2, combined), = table.rows
        assert abs(float(b1) - 0.6931 / 2 * 2) < 1e-3
        assert abs(float(b2) - 1.0) < 1e-12
        assert combined == b1

    def test_svg(self, capsys, tmp_path):
        out_file = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "phi-table", "--format", "svg",
                         "--out", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        assert svg.startswith("<svg") and svg.count("<polyline") == 2
        assert "crossover" in svg

    def test_grid_domain_error(self, capsys):
        code, _, _ = run(capsys, "phi-table", "--grid", "0:1.5:0.1")
        assert code == 1

    def test_grid_field_count_exit_2(self, capsys):
        for grid in ("0:1", "0:1:0.1:2", "0:x:0.1"):
            code, _, err = run(capsys, "phi-table", "--grid", grid)
            assert code == 2 and "--grid" in err

    def test_grid_non_finite_exit_1(self, capsys):
        for grid in ("0:nan:0.1", "0:1:inf"):
            code, _, err = run(capsys, "phi-table", "--grid", grid)
            assert code == 1 and "finite" in err

    def test_grid_point_cap_exit_1(self, capsys):
        # Refused from the point count alone, before any point is built.
        code, _, err = run(capsys, "phi-table", "--grid", "0:1.4:1e-12")
        assert code == 1 and "points" in err

    def test_grid_step_below_precision_exit_1(self, capsys):
        # 1 + 1e-40 rounds to 1 at 30 digits, so the grid would never advance.
        code, _, err = run(capsys, "phi-table", "--which", "phi-inv-branches",
                           "--grid", "1:1:1e-40")
        assert code == 1 and "precision" in err

    def test_svg_render_inv(self):
        svg = render_svg(phi_inv_branch_table(1, 23, 1))
        assert "<svg" in svg


class TestGroupCommands:
    def test_lip(self, capsys, bump_pair_file):
        code, out, _ = run(capsys, "lip", bump_pair_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["L"] == "2" and payload["M"] == "1"

    def test_fixed_points_empty(self, capsys, translations_file):
        code, out, _ = run(capsys, "fixed-points", translations_file)
        assert code == 0 and "verdict: empty" in out

    def test_fixed_points_nonempty(self, capsys, bump_pair_file):
        code, out, _ = run(capsys, "fixed-points", bump_pair_file)
        assert code == 0 and "verdict: nonempty" in out

    @pytest.mark.parametrize("schedule", [(), ("--schedule", "")])
    def test_bound_p_zero_exit_1(self, capsys, translations_file, schedule):
        # p = 0 is refused by the checks on p, before 1/p is taken
        code, out, err = run(capsys, "bound", translations_file, "--p", "0", *schedule)
        assert code == 1 and "p=0" in err and out == ""

    def test_bound_translations_csv(self, capsys, translations_file):
        code, out, _ = run(
            capsys, "bound", translations_file, "--p", "2",
            "--schedule", "1,4,16", "--format", "csv",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            n = F(row[3])
            d = float(row[4])
            assert abs(d - float(n) ** -0.5) < 1e-12

    def test_bound_hypothesis_flag_exit_3(self, capsys, bump_pair_file):
        code, out, _ = run(capsys, "bound", bump_pair_file, "--schedule", "2,4")
        assert code == 3 and "VIOLATED" in out

    def test_sweep(self, capsys, translations_file):
        code, out, _ = run(capsys, "sweep", translations_file,
                           "--p", "2,4", "--schedule", "1,2")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "lip", str(bad))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "lip", "/nonexistent/group.json")
        assert code == 2

    def test_schema_error_field_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "generators": [
            {"label": "a", "map": {"nodes": [["0", "0"], ["0", "1"]]}}
        ]}))
        code, _, err = run(capsys, "lip", str(bad))
        assert code == 2 and "generators[0].map" in err


    def test_non_finite_node_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"name": "x", "generators": [{"label": "a", '
                       '"map": {"nodes": [[0, NaN], [1, 2]]}}]}')
        code, _, err = run(capsys, "bound", str(bad))
        assert code == 2 and "generators[0].map.nodes[0][1]" in err

    def test_symmetric_string_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "sym.json"
        bad.write_text(json.dumps({"name": "x", "symmetric": "false", "generators": [
            {"label": "a", "map": {"nodes": [["0", "0"], ["1", "2"], ["3", "3"]]}}
        ]}))
        code, out, err = run(capsys, "lip", str(bad))
        assert code == 2 and "generator_set.symmetric" in err and out == ""

    def test_null_name_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "name.json"
        bad.write_text(json.dumps({"name": None, "generators": [
            {"label": "a", "map": {"nodes": [["0", "0"], ["1", "2"], ["3", "3"]]}}
        ]}))
        code, out, err = run(capsys, "lip", str(bad))
        assert code == 2 and "generator_set.name" in err and out == ""

    @pytest.mark.parametrize(
        "labels,symmetric",
        [(("a", "a"), False), (("a", "b"), True)],
        ids=["duplicate-labels", "false-symmetric-flag"],
    )
    def test_invalid_set_exit_2(self, capsys, tmp_path, labels, symmetric):
        # GeneratorSet's own checks raise DomainError; from_obj reports it
        # as a SchemaError at the set's path
        bump = {"nodes": [["0", "0"], ["1", "2"], ["3", "3"]]}
        shift = {"nodes": [["0", "1"]]}
        bad = tmp_path / "set.json"
        bad.write_text(json.dumps({"name": "x", "symmetric": symmetric, "generators": [
            {"label": labels[0], "map": bump}, {"label": labels[1], "map": shift},
        ]}))
        code, out, err = run(capsys, "lip", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: generator_set: "), err

    def test_symmetric_inverse_with_int_nodes(self, capsys, tmp_path):
        # the inverse written with JSON ints where the map has strings
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"name": "x", "symmetric": True, "generators": [
            {"label": "b", "map": {"nodes": [["0", "0"], ["1", "2"], ["3", "3"]]}},
            {"label": "B", "map": {"nodes": [[0, 0], [2, 1], [3, 3]]}},
        ]}))
        code, out, _ = run(capsys, "lip", str(path))
        assert code == 0 and "L = 2" in out

    def test_small_float_node_kept_exact(self, capsys, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"name": "x", "generators": [
            {"label": "a", "map": {"nodes": [[0, 0], [1e-13, 2], [3, 3]]}}
        ]}))
        code, out, _ = run(capsys, "lip", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["per_generator"][0]["lip"] == str(F(2 * 10**13))


    def test_huge_json_integer_exit_2(self, capsys, tmp_path):
        # json refuses integers over Python's 4,300-digit limit.
        path = tmp_path / "huge.json"
        path.write_text('{"name": "x", "generators": [{"label": "a", '
                        '"map": {"nodes": [[0, 0], [1, %s]]}}]}' % ("1" * 5000))
        code, out, err = run(capsys, "lip", str(path))
        assert code == 2 and "generator_set" in err and out == ""

    def test_huge_exponent_exit_2(self, capsys, tmp_path, bump_pair_file):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "x", "generators": [
            {"label": "a", "map": {"nodes": [["0", "0"], ["1", "1e400000000"]]}}
        ]}))
        code, _, err = run(capsys, "lip", str(path))
        assert code == 2 and "generators[0].map.nodes[1][1]" in err
        code, _, err = run(capsys, "bound", bump_pair_file, "--schedule", "1,1e400000000")
        assert code == 2 and "schedule" in err

    def test_rational_over_digit_limit_exit_1(self, tmp_path):
        # The exponent cap accepts 1e4300, but L = 10^4300 has 4,301 digits,
        # more than Python prints in an integer.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "x", "generators": [
            {"label": "a", "map": {"nodes": [["0", "0"], ["1", "1e4300"]]}}
        ]}))
        for argv, field in (
            (["lip"], "per_generator[0].lip"),
            (["bound"], "L:"),
            (["bound", "--format", "json"], "per_generator[0].lip"),
            # CSV rows are built from the JSON strings, so CSV fails as JSON does
            (["bound", "--format", "csv"], "per_generator[0].lip"),
            (["sweep"], "per_generator[0].lip"),
        ):
            assert_clean_exit_1(run_process(*argv, str(path)), field)

    def test_fixed_point_over_digit_limit_exit_1(self, tmp_path):
        # The fixed ray [10^4300, +inf) has an endpoint of 4,301 digits.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "x", "generators": [
            {"label": "a", "map": {"nodes": [["0", "1"], ["1e4300", "1e4300"]]}}
        ]}))
        for fmt in ("text", "json"):
            proc = run_process("fixed-points", str(path), "--format", fmt)
            assert_clean_exit_1(proc, "fixed_set")

    def test_unprintable_value_in_error_exit_1(self, tmp_path, bump_pair_file):
        # The error names a value of 4,301 digits: a repeated node
        # coordinate, or a negative schedule entry.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "x", "generators": [
            {"label": "a", "map": {"nodes": [["0", "1e4300"], ["1e4300", "1e4300"]]}}
        ]}))
        assert_clean_exit_1(run_process("lip", str(path)), "nodes[1][1]")
        proc = run_process("bound", bump_pair_file, "--schedule=-1e4300")
        assert_clean_exit_1(proc, "schedule")


class TestLimitDiag:
    def test_diag_json(self, capsys, tmp_path):
        stages = []
        for k in range(1, 6):
            n = 2**k
            g = PLHomeo.from_pairs([(0, 1 + F(1, n)), (1, 2)])
            stages.append(set_obj(GeneratorSet(f"s{n}", (("g", g),))))
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"labels": ["g"], "stages": stages}))
        code, out, _ = run(capsys, "limit-diag", str(path), "--words", "g,g g")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimates"]["g"] == 1.0
        code, out, _ = run(capsys, "limit-diag", str(path), "--format", "csv")
        assert code == 0 and out.startswith("stage,word,value")

    def test_huge_json_integer_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"labels": ["g"], "stages": [{"name": "s", "generators": '
                        '[{"label": "g", "map": {"nodes": [[%s, 1]]}}]}]}' % ("7" * 5000))
        code, out, err = run(capsys, "limit-diag", str(path))
        assert code == 2 and "action_sequence" in err and out == ""

    def test_rational_over_digit_limit_exit_1(self, tmp_path):
        # The stage's Lipschitz constant 10^4300 has 4,301 digits, and so
        # does the base point 10^4300.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"labels": ["g"], "stages": [{"name": "s", "generators": [
            {"label": "g", "map": {"nodes": [["0", "0"], ["1", "1e4300"]]}}
        ]}]}))
        assert_clean_exit_1(run_process("limit-diag", str(path)), "stages[0].max_lip")
        small = tmp_path / "small.json"
        small.write_text(json.dumps({"labels": ["g"], "stages": [{"name": "s", "generators": [
            {"label": "g", "map": {"nodes": [["0", "1"], ["1", "2"]]}}
        ]}]}))
        assert_clean_exit_1(run_process("limit-diag", str(small), "--base", "1e4300"), "base")


    def test_bound_beyond_float_range_exit_1(self, capsys, tmp_path):
        # The defect bound (Lip - 1) |T(g)| = 10^400 - 1 at base 1.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"labels": ["g"], "stages": [{"name": "s", "generators": [
            {"label": "g", "map": {"nodes": [["0", "0"], ["1", "1e400"]]}}
        ]}]}))
        code, out, err = run(capsys, "limit-diag", str(path), "--base", "1", "--format", "json")
        assert code == 1 and "defects[0].per_stage[0].bound" in err and out == ""

    @pytest.mark.parametrize("labels", [["g", "g g"], ["e", "g"]])
    def test_label_printed_like_another_word_exit_2(self, capsys, tmp_path, labels):
        # "g g" prints like the product g g, and "e" like the empty word.
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"labels": labels, "stages": [{"name": "s", "generators": [
            {"label": lab, "map": {"nodes": [["0", "1"]]}} for lab in labels
        ]}]}))
        code, out, err = run(capsys, "limit-diag", str(path), "--words", "g,g^-1")
        assert code == 2 and "action_sequence" in err and "labels[" in err and out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1e-6", "inf"])
    def test_tolerance_outside_domain_exit_1(self, capsys, tmp_path, tol):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"labels": ["g"], "stages": [{"name": "s", "generators": [
            {"label": "g", "map": {"nodes": [["0", "1"]]}}
        ]}]}))
        code, out, err = run(capsys, "limit-diag", str(path), f"--tol={tol}")
        assert code == 1 and "tolerance" in err and out == ""


class TestSignedOptionValues:
    """A numeric option's value may start with "-", spaced or joined by "=",
    whether or not argparse reads it as a plain negative number."""

    INPUTS = {
        "shrinking": str(GOLDEN / "limit_diag/inputs/shrinking.json"),
        "bump_t": str(GOLDEN / "bound/inputs/bump_t.json"),
    }

    @pytest.mark.parametrize("base,printed", [
        ("-3/2", "-3/2"), ("-2", "-2"), ("-0.5", "-1/2"), ("-1e-3", "-1/1000"),
    ])
    def test_base_spaced_as_joined(self, capsys, base, printed):
        spaced = run(capsys, "limit-diag", self.INPUTS["shrinking"], "--base", base)
        assert spaced == run(capsys, "limit-diag", self.INPUTS["shrinking"], f"--base={base}")
        assert spaced[0] == 0 and f'"base": "{printed}"' in spaced[1]

    @pytest.mark.parametrize("argv,field", [
        (["limit-diag", "{shrinking}", "--tol", "-1e-6"], "tolerance"),
        (["limit-diag", "{shrinking}", "--tol", "-inf"], "tolerance"),
        (["bound", "{bump_t}", "--schedule", "-1/2"], "schedule"),
        (["bound", "{bump_t}", "--schedule", "-1/2,4"], "schedule"),
        (["phi-table", "--grid", "-1:0:0.5"], "grid"),
        # a prefix of one option names it, as argparse reads it
        (["bound", "{bump_t}", "--sched", "-1/2"], "schedule"),
        (["limit-diag", "{shrinking}", "--t", "-1e-6"], "tolerance"),
        (["phi-table", "--gr", "-1:0:0.5"], "grid"),
    ])
    def test_negative_value_reaches_its_domain_check(self, capsys, argv, field):
        code, out, err = run(capsys, *(tok.format(**self.INPUTS) for tok in argv))
        assert code == 1 and field in err and out == ""

    @pytest.mark.parametrize("argv,full", [
        (["limit-diag", "{shrinking}", "--ba", "-3/2"], "--base"),
        (["bound", "{bump_t}", "--sched", "2"], "--schedule"),
        (["bound", "{bump_t}", "--s", "-1/2,4"], "--schedule"),
    ])
    def test_prefix_as_full_name(self, capsys, argv, full):
        argv = [tok.format(**self.INPUTS) for tok in argv]
        assert run(capsys, *argv) == run(capsys, *argv[:2], full, argv[3])

    def test_only_signed_options_join(self):
        argv = ["bound", "x.json", "--out", "-o.txt", "--p", "--help", "--schedule", "-1"]
        want = ["bound", "x.json", "--out", "-o.txt", "--p", "--help", "--schedule=-1"]
        assert _join_signed_values(argv) == want

    def test_only_unambiguous_prefixes_join(self):
        # "--" and "-" are prefixes of every signed option, "--pr" of none
        argv = ["--pr", "-1", "--", "-1", "-", "-1", "--sch", "-1", "--t", "-1e-6"]
        want = ["--pr", "-1", "--", "-1", "-", "-1", "--sch=-1", "--t=-1e-6"]
        assert _join_signed_values(argv) == want


class TestVerifyAndDeterminism:
    def test_verify_group_axioms(self, capsys):
        code, out, _ = run(capsys, "verify", "group-axioms")
        assert code == 0
        assert "associativity" in out and "FAIL" not in out

    def test_byte_identical_output(self, capsys, translations_file):
        args = ("bound", translations_file, "--p", "2", "--schedule", "1,2",
                "--format", "csv")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


# The public names of the package
PUBLIC = {
    "ActionSequence", "BoundReport", "DomainError", "GeneratorSet", "IntervalUnion",
    "KazhlipError", "LimitDiagnostic", "PLHomeo", "ResourceLimitError", "SchemaError",
    "StepFunction", "Word", "ball", "bound_report", "corollary_bound", "estimate_lp",
    "estimate_p2", "format_rational", "global_fixed_set", "kappa_max", "kappa_transfer",
    "koopman_apply", "koopman_distortion", "limit_translation_diagnostic",
    "log_power_bound_check", "lp_norm", "mazur_map", "normalize", "normalize_stage",
    "parse_rational", "phi", "phi_crossover", "phi_inv", "precision", "set_precision",
    "subtract", "theorem_check", "window_vector", "word_evaluate",
}


def run_python(*args):
    """`python *args` in a fresh process with no KAZHLIP_PRECISION."""
    env = {k: v for k, v in os.environ.items() if k != "KAZHLIP_PRECISION"}
    env["PYTHONPATH"] = str(Path(kazhlip.__file__).parents[1])
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestStartUp:
    """What a fresh process loads: `import kazhlip` runs no library module,
    and a command runs only the modules it reads."""

    @pytest.mark.parametrize("command", EXACT_INPUTS)
    def test_exact_commands_never_import_mpmath(self, command):
        proc = run_python("-X", "importtime", "-m", "kazhlip.cli", command,
                          str(GOLDEN / EXACT_INPUTS[command]))
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert proc.stdout and "Traceback" not in proc.stderr
        assert not [name for name in imported if name.split(".")[0] == "mpmath"]

    def test_import_runs_no_library_module(self):
        proc = run_python("-c", "import sys, types, kazhlip\n"
                          "mods = [m for n, m in sys.modules.items() if n.startswith('kazhlip.')]\n"
                          "print(len(mods), sum(type(m) is types.ModuleType for m in mods),"
                          " 'mpmath' in sys.modules)")
        assert proc.stdout.split() == ["10", "0", "False"]

    def test_public_names_are_their_modules_objects(self):
        proc = run_python("-c", "import sys, kazhlip\n"
                          "for name in kazhlip.__all__:\n"
                          "    obj = getattr(kazhlip, name)\n"
                          "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
                          "print(*kazhlip.__all__)")
        assert set(proc.stdout.split()) == PUBLIC

    def test_only_the_cli_reads_the_environment(self):
        # The library starts at 30 digits whatever KAZHLIP_PRECISION says;
        # the CLI reads the variable on every call.
        env = {**os.environ, "KAZHLIP_PRECISION": "40",
               "PYTHONPATH": str(Path(kazhlip.__file__).parents[1])}
        library = subprocess.run(
            [sys.executable, "-c", "import kazhlip, mpmath\n"
             "print(kazhlip.phi(mpmath.mpf(1) / 10), mpmath.mp.dps)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        cli = subprocess.run([sys.executable, "-m", "kazhlip.cli", "phi", "0.1"],
                             capture_output=True, text=True, env=env, timeout=60)
        value, digits = library.stdout.split()
        assert digits == "30" and cli.returncode == 0
        with mpmath.workdps(30):
            assert value == str(mpmath.e ** (mpf(1) / 5))
        with mpmath.workdps(40):
            assert cli.stdout.strip() == mpmath.nstr(mpmath.e ** (mpf(1) / 5), 40)

    def test_precision_stays_the_context_manager(self):
        proc = run_python("-c", "import kazhlip.precision, mpmath\n"
                          "from kazhlip import precision\n"
                          "with precision(40):\n"
                          "    print(mpmath.mp.dps)\n"
                          "print(kazhlip.precision is precision, kazhlip.bounds.__name__)")
        assert proc.stdout.split() == ["40", "True", "kazhlip.bounds"]
