"""Golden CLI outputs: each case's stdout, stderr and exit code, compared
byte for byte with the files committed under tests/golden/<suite>/expected.

A case is a `kazhlip` argv run through `cli.main` in this process, with
the suite directory as the working directory, so input paths are relative
to it. After a deliberate output change, regenerate the expected files
with `PYTHONPATH=src python tests/test_golden.py` and commit the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from kazhlip.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    (suite.parent, case)
    for suite in sorted(GOLDEN.glob("*/cases.json"))
    for case in json.loads(suite.read_text())
]


def run_case(suite: Path, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(suite), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": f"{code}\n"}


def expected_path(suite: Path, name: str, stream: str) -> Path:
    return suite / "expected" / f"{name}.{stream}"


@pytest.mark.parametrize(
    "suite,case", CASES, ids=[f"{suite.name}/{case['name']}" for suite, case in CASES]
)
def test_golden_output(suite, case):
    for stream, text in run_case(suite, case["argv"]).items():
        assert text == expected_path(suite, case["name"], stream).read_text(), stream


if __name__ == "__main__":
    for suite, case in CASES:
        for stream, text in run_case(suite, case["argv"]).items():
            path = expected_path(suite, case["name"], stream)
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
