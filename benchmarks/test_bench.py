"""The benchmark's own tests, at the smoke size of every workload.

    python -m pytest benchmarks -q

They run each workload through run.py exactly as a benchmark run does,
and check that the output checks reject wrong answers.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # The three known CLI faults fail in every round of ten commands.
    assert result["failed"] * 10 == (3 * result["attempted"] if workload == "cli" else 0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def corrupt_report(report):
    cell = report.sweep[5]
    bad = dataclasses.replace(cell, distortion=cell.distortion * (1 + 1e-15))
    return dataclasses.replace(report, sweep=report.sweep[:5] + (bad,) + report.sweep[6:])


def corrupt_ball(elements):
    return elements + [elements[-1]]


def corrupt_direct(result):
    out, *rest = result
    values = (out.values[0] * 2,) + out.values[1:]
    return (dataclasses.replace(out, values=values), *rest)


def corrupt_cli(old, new):
    def corrupt(result):
        code, out, err, rss = result
        assert old in out
        return code, out.replace(old, new, 1), err, rss
    return corrupt


@pytest.mark.parametrize("workload, key, corrupt", [
    ("bound-window", "set0", corrupt_report),
    ("exact-group", "ball0", corrupt_ball),
    ("koopman-generic", "direct2", corrupt_direct),
    ("cli", "phi", corrupt_cli("7.38905", "7.38906")),
    ("cli", "phi-inv", corrupt_cli("1.17", "1.18")),
    ("cli", "fixed-points", corrupt_cli("[2, 5]", "[2, 6]")),
    ("cli", "bound", corrupt_cli('"distortion": "0.', '"distortion": "0.0')),
    ("cli", "limit-diag", corrupt_cli('"g g": false', '"g g": true')),
])
def test_checks_reject_wrong_outputs(workload, key, corrupt):
    import workloads
    from reference import CheckError

    wl = workloads.cli(3, True, inprocess=True) if workload == "cli" else workloads.WORKLOADS[workload](3, True)
    (op,) = [op for op in wl.ops if op.key == key]
    out = op.run()
    op.check(out)
    with pytest.raises(CheckError):
        op.check(corrupt(out))
