import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import mpmath
from mpmath.libmp import mpf_add

import kazhlip
from kazhlip.precision import ROUNDING, precision

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_bits.py"
spec = importlib.util.spec_from_file_location("report_bits", TOOL)
report_bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_bits)


def next_up(x):
    """The real one unit in the last place above the positive mpf x."""
    _, _, exp, bc = x._mpf_
    ulp = (0, 1, exp + bc - mpmath.mp.prec, 1)
    return mpmath.mp.make_mpf(mpf_add(x._mpf_, ulp, mpmath.mp.prec, ROUNDING))


def test_digest_stable_across_runs():
    # the tool as a script in a new process, and its functions in this one
    env = {**os.environ, "PYTHONPATH": str(Path(kazhlip.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(TOOL)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    made, refused, hexdigest = report_bits.digest(report_bits.reports())
    assert proc.stdout == f"reports {made} refused {refused} sha256 {hexdigest}\n"
    # every set, precision, exponent list and pass gives a report or a refusal
    runs = len(report_bits.generator_sets()) * 3 * len(report_bits.P_LISTS) * 2
    assert made + refused == runs and made > refused > 0


def test_digest_sees_one_bit():
    # one cell's distortion one ulp higher changes one line and the digest
    reports = report_bits.reports()
    report = next(reports)  # the first set's cold report at 15 digits
    reports.close()
    cell = report.sweep[3]
    with precision(15):
        bumped = dataclasses.replace(cell, distortion=next_up(cell.distortion))
    assert bumped.distortion != cell.distortion
    other = dataclasses.replace(report, sweep=(*report.sweep[:3], bumped, *report.sweep[4:]))
    lines, other_lines = list(report_bits.report_lines(report)), list(report_bits.report_lines(other))
    assert sum(a != b for a, b in zip(lines, other_lines, strict=True)) == 1
    assert report_bits.digest([report]) != report_bits.digest([other])
    assert report_bits.digest([report]) == report_bits.digest([report])
