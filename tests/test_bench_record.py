import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = {"setup_s": "s", "peak_rss_mib": "MiB", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def write_result(directory, seed, sha, ops_per_s, p50, failed=0, attempted=100):
    directory.mkdir(exist_ok=True)
    values = {"setup_s": 0.5, "peak_rss_mib": 30.0, "ops_per_s": ops_per_s, "op_p50_ms": p50, "op_p90_ms": 2 * p50}
    result = {
        "provenance": {"git_sha": sha, "python": "3.11.7", "workload": "exact-group", "seed": seed,
                       "inputs": {"balls": 2, "case_seeds": f"{seed} * 1000003 + i"}},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": METRICS[k]} for k, v in values.items()},
    }
    (directory / f"result-exact-group-seed{seed}-trace0.json").write_text(json.dumps(result))


def test_record_from_synthetic_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_result(parent, 1, "aaa", ops_per_s=100.0, p50=3.0)
    write_result(change, 1, "bbb", ops_per_s=150.0, p50=2.0, failed=2)
    write_result(change, 2, "bbb", ops_per_s=1.0, p50=9.0)  # no partner: left out
    out = tmp_path / "BENCH_9.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change), "--pr", "9",
                              "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["pr"] == 9
    data = rec["workloads"]["exact-group"]
    assert data["seeds"] == [1]
    assert data["failed"] == {"parent": 0, "change": 2}
    assert data["not_correct"] == {"parent": 0, "change": 1}
    assert data["attempted"] == {"parent": 100, "change": 100}
    ops = data["metrics"]["ops_per_s"]
    assert ops["pairs"] == 1 and ops["pairs_won"] == 1 and ops["better"] == "higher"
    assert ops["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert ops["change"]["median"] == 150.0 and ops["median_change"] == 0.5
    assert data["metrics"]["op_p50_ms"]["pairs_won"] == 1  # lower is better
    assert data["metrics"]["setup_s"]["pairs_won"] == 0  # a tie is no win
    assert data["provenance"]["parent"]["git_sha"] == "aaa"
    assert data["provenance"]["change"]["git_sha"] == "bbb"


def test_quartiles_and_differing_provenance(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, ops in zip(range(1, 6), (10.0, 20.0, 30.0, 40.0, 50.0)):
        write_result(parent, seed, "aaa", ops_per_s=ops, p50=1.0)
        write_result(change, seed, "bbb", ops_per_s=ops + 1, p50=1.0)
    rec = bench_record.record(bench_record.load_runs(parent), bench_record.load_runs(change),
                              json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())["end_to_end"], 1)
    data = rec["workloads"]["exact-group"]
    assert data["metrics"]["ops_per_s"]["parent"] == {"median": 30.0, "q1": 20.0, "q3": 40.0}
    assert data["metrics"]["ops_per_s"]["pairs_won"] == 5
    assert data["provenance"]["parent"]["seed"] == [1, 2, 3, 4, 5]
    assert data["provenance"]["parent"]["inputs"]["balls"] == 2
    assert len(data["provenance"]["parent"]["inputs"]["case_seeds"]) == 5


def test_seed_range(tmp_path):
    for seed in (1, 2, 3):
        write_result(tmp_path / "parent", seed, "aaa", ops_per_s=1.0, p50=1.0)
        write_result(tmp_path / "change", seed, "bbb", ops_per_s=2.0, p50=1.0)
    out = tmp_path / "out.json"
    assert bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                              "--pr", "1", "--seeds", "2-3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["workloads"]["exact-group"]["seeds"] == [2, 3]


def test_no_common_run_exits_1(tmp_path):
    write_result(tmp_path / "parent", 1, "aaa", ops_per_s=1.0, p50=1.0)
    write_result(tmp_path / "change", 2, "bbb", ops_per_s=1.0, p50=1.0)
    assert bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                              "--pr", "1", "--out", str(tmp_path / "out.json")]) == 1


def ops_verdict(tmp_path, parent_ops, change_ops):
    """The ops_per_s verdict of pairs with these values, seed by seed."""
    for seed, (p, c) in enumerate(zip(parent_ops, change_ops), 1):
        write_result(tmp_path / "parent", seed, "aaa", ops_per_s=p, p50=1.0)
        write_result(tmp_path / "change", seed, "bbb", ops_per_s=c, p50=1.0)
    out = tmp_path / "out.json"
    assert bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                              "--pr", "1", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["exact-group"]["metrics"]
    # equal runs on both sides: no other metric moves
    assert {m["verdict"] for name, m in metrics.items() if name != "ops_per_s"} == {"same"}
    return metrics["ops_per_s"]["verdict"]


PARENT = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 97.0, 100.5, 101.5]  # q3 - q1 = 3


def test_verdict_gain(tmp_path):
    # 9 of 10 pairs won, the median up by 10, more than q3 - q1 = 3
    change = [p + 10 for p in PARENT[:9]] + [90.0]
    assert ops_verdict(tmp_path, PARENT, change) == "gain"


def test_verdict_no_gain_on_8_of_10_pairs(tmp_path):
    change = [p + 10 for p in PARENT[:8]] + [90.0, 90.0]
    assert ops_verdict(tmp_path, PARENT, change) == "same"


def test_verdict_no_gain_inside_the_spread(tmp_path):
    # every pair won, but the median moves by 2 < q3 - q1
    assert ops_verdict(tmp_path, PARENT, [p + 2 for p in PARENT]) == "same"


def test_verdict_worse(tmp_path):
    # the median down 25 %, past the 20 % bound of ops_per_s
    assert ops_verdict(tmp_path, PARENT, [p * 0.75 for p in PARENT]) == "worse"


def test_verdict_within_the_bound(tmp_path):
    assert ops_verdict(tmp_path, PARENT, [p * 0.9 for p in PARENT]) == "same"


def test_verdict_unresolved(tmp_path):
    # the parent's runs spread over 50 % of its median, wider than the bound
    parent = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 65.0, 135.0]
    assert ops_verdict(tmp_path, parent, [p * 0.9 for p in parent]) == "unresolved"


def test_verdict_spread_but_every_run_better(tmp_path):
    # the parent spreads as widely, and the median moves by less than its
    # q3 - q1 = 77.5, but every run of the change beats every parent run
    parent = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 65.0, 135.0]
    change = [151.0] * 10
    assert ops_verdict(tmp_path, parent, change) == "same"


def test_attempted_medians(tmp_path, capsys):
    # peak_rss_mib grows with the operations a run completes, so the record
    # gives each side's median count beside it
    for seed, (p, c) in enumerate([(100, 300), (120, 310), (90, 290), (110, 400)], 1):
        write_result(tmp_path / "parent", seed, "aaa", ops_per_s=1.0, p50=1.0, attempted=p)
        write_result(tmp_path / "change", seed, "bbb", ops_per_s=1.0, p50=1.0, attempted=c)
    out = tmp_path / "out.json"
    assert bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                              "--pr", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["workloads"]["exact-group"]["attempted"] == {
        "parent": 105.0, "change": 305.0,
    }
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["exact-group", "attempted", "105", "->", "305", "ops", "(median", "per", "run)"]


def claim_exit(tmp_path, change_ops, claim, change_p50=1.0):
    """main's exit code with --claim, on ten pairs of PARENT ops_per_s; the
    parent's op_p50_ms is 1."""
    for seed, (p, c) in enumerate(zip(PARENT, change_ops), 1):
        write_result(tmp_path / "parent", seed, "aaa", ops_per_s=p, p50=1.0)
        write_result(tmp_path / "change", seed, "bbb", ops_per_s=c, p50=change_p50)
    out = tmp_path / "out.json"
    code = bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                              "--pr", "1", "--out", str(out), "--claim", claim])
    assert out.exists()  # the record is written either way
    return code


def test_claim_gain_exits_0(tmp_path, capsys):
    assert claim_exit(tmp_path, [p + 10 for p in PARENT], "exact-group/ops_per_s") == 0
    assert capsys.readouterr().err == ""


def test_claim_without_gain_exits_1(tmp_path, capsys):
    assert claim_exit(tmp_path, [p + 2 for p in PARENT], "exact-group/ops_per_s") == 1
    assert capsys.readouterr().err == "claim exact-group/ops_per_s fails: exact-group/ops_per_s is same\n"


def test_claim_of_a_missing_pair_exits_1(tmp_path, capsys):
    assert claim_exit(tmp_path, [p + 10 for p in PARENT], "bound-window/ops_per_s") == 1
    assert "bound-window/ops_per_s is missing" in capsys.readouterr().err


def test_claim_with_another_pair_worse_exits_1(tmp_path, capsys):
    # the claimed ops_per_s gains while op_p50_ms doubles, past its bound
    assert claim_exit(tmp_path, [p + 10 for p in PARENT], "exact-group/ops_per_s", change_p50=2.0) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "claim exact-group/ops_per_s fails: exact-group/op_p50_ms is worse",
        "claim exact-group/ops_per_s fails: exact-group/op_p90_ms is worse",
    ]
