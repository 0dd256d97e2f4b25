"""Golden CLI outputs: each case's stdout, stderr and exit code, compared
byte for byte with the files committed under tests/golden/<suite>/expected.

A case is a `kazhlip` argv run through `cli.main` in this process, with
the suite directory as the working directory, so input paths are relative
to it. Every case sees the same environment: no KAZHLIP_PRECISION and an
80-column terminal for argparse's help. An argparse exit (`--help`, a
usage error) is the case's exit code. After a deliberate output change,
regenerate the expected files with `PYTHONPATH=src python
tests/test_golden.py` and commit the diff.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import kazhlip
from kazhlip.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    (suite.parent, case)
    for suite in sorted(GOLDEN.glob("*/cases.json"))
    for case in json.loads(suite.read_text())
]


def case_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KAZHLIP_PRECISION"}
    return {**env, "COLUMNS": "80"}


def run_case(suite: Path, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, case_env(), clear=True), \
            contextlib.chdir(suite), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": f"{code}\n"}


def expected_path(suite: Path, name: str, stream: str) -> Path:
    return suite / "expected" / f"{name}.{stream}"


@pytest.mark.parametrize(
    "suite,case", CASES, ids=[f"{suite.name}/{case['name']}" for suite, case in CASES]
)
def test_golden_output(suite, case):
    for stream, text in run_case(suite, case["argv"]).items():
        assert text == expected_path(suite, case["name"], stream).read_text(), stream


# One case per command, and the parser's own exits
FRESH = [
    "phi/phi_0.1_30",
    "phi/phi_inv_10.3_30",
    "phi/table_phi_grid_csv",
    "bound/bump_t_lip_json",
    "bound/bump_t_fixed_points_text",
    "bound/bump_t_bound_text_15",
    "bound/translations_sweep_15",
    "limit_diag/shrinking_words_tol",
    "parser/help",
    "parser/verify_bogus_exit_2",
]


@pytest.mark.parametrize("case_id", FRESH)
def test_golden_output_fresh_process(case_id):
    """The case through `python -m kazhlip.cli` in a new process, where a
    name resolves only if the command itself loads its module."""
    ((suite, case),) = [(s, c) for s, c in CASES if f"{s.name}/{c['name']}" == case_id]
    env = {**case_env(), "PYTHONPATH": str(Path(kazhlip.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "kazhlip.cli", *case["argv"]],
        cwd=suite, env=env, capture_output=True, text=True, timeout=60,
    )
    got = {"stdout": proc.stdout, "stderr": proc.stderr, "code": f"{proc.returncode}\n"}
    for stream, text in got.items():
        assert text == expected_path(suite, case["name"], stream).read_text(), stream


if __name__ == "__main__":
    for suite, case in CASES:
        for stream, text in run_case(suite, case["argv"]).items():
            path = expected_path(suite, case["name"], stream)
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
