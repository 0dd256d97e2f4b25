"""kazhlip benchmark: one workload per run, closed loop, one process.

    python3 benchmarks/run.py --workload bound-window --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25   # every workload, as a table
    python3 benchmarks/run.py --workload cli --seed 1 --smoke        # small inputs, all checks

Run from anywhere inside a checkout that holds src/kazhlip. The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). Details and
provenance go to .bench_out/ at the checkout root. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("bound-window", "exact-group", "koopman-generic", "cli")
SETUP_SAMPLES = 3
PROBE_SAMPLES = 5
# The machine's speed drifts by up to 40 % between minutes, and CPU time
# drifts with it: the CPU is shared with other tenants. Every run therefore
# spends CAL_SHARE of its busy time in a fixed calibration loop, interleaved
# with the operations, and scales each time it reports by CAL_NOMINAL_S /
# (the loop's mean time within SCALE_WINDOW_S of it): times are given at the
# speed at which the loop takes CAL_NOMINAL_S, close to this machine's quiet
# speed. Raw wall-clock values go to the result file.
CAL_NOMINAL_S = 0.005
CAL_SHARE = 0.03
SCALE_WINDOW_S = 2.0

# name, unit
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)
CALL_COUNTS = (
    "plmap.construct", "plmap.compose", "plmap.invert", "plmap.evaluate", "plmap.slope_at",
    "intervals.intersect", "groupact.word_evaluate", "koopman.koopman_apply",
    "koopman.subtract", "koopman.refine", "koopman.lp_norm", "precision.to_real",
)
SELF_SHARES = (
    "plmap.construct", "plmap.compose", "plmap.invert", "plmap.evaluate", "plmap.slope_at",
    "intervals.intersect", "groupact.global_fixed_set", "groupact.ball",
    "limits.limit_translation_diagnostic", "figures.phi_branch_table", "bounds.phi_crossover",
    "koopman.koopman_apply", "koopman.subtract", "koopman.lp_norm", "koopman.mazur_map",
    "bounds.bound_report", "bounds.estimate_p2", "bounds.estimate_lp",
    "verify.random_plhomeo", "verify.random_step_function",
)


def calibration_loop():
    """Fixed pure-Python work of the kinds kazhlip does: Fraction and
    30-digit mpf arithmetic."""
    import mpmath
    from fractions import Fraction

    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
    with mpmath.workdps(30):
        x = mpmath.mpf(1)
        for i in range(1, 150):
            x = (x * i + 1) ** mpmath.mpf("0.5")
    return acc, x


def timed_calibration():
    gc.disable()  # the loop's time must not depend on what the process holds
    try:
        start = time.perf_counter()
        calibration_loop()
        return start, time.perf_counter() - start
    finally:
        gc.enable()


def bracketed(fn):
    """Run fn between two sets of three calibration loops; return its
    result, its wall time and the factor that scales times measured
    meanwhile to nominal speed."""
    cal = [timed_calibration()[1] for _ in range(3)]
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    cal += [timed_calibration()[1] for _ in range(3)]
    return result, elapsed, CAL_NOMINAL_S / statistics.mean(cal)


def quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# running rounds


class Tally:
    """Outcome of every operation a run attempted. The first output of
    each input is kept and checked by `finish`, after the timed window;
    later outputs must reproduce its digest."""

    def __init__(self, workload, first=None):
        self.workload = workload
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = {} if first is None else first  # key -> (op, output, digest)
        self.rss_kib = 0
        self.busy = 0.0  # seconds in timed operations
        self.calibrations = []
        self.cal_at = []
        self.cal_total = 0.0
        self.op_at = []
        self.op_keys = []

    def calibrate(self):
        """Run the calibration loop until it has taken CAL_SHARE of the
        time spent in timed operations."""
        while self.cal_total < CAL_SHARE * self.busy:
            start, elapsed = timed_calibration()
            self.cal_at.append(start)
            self.calibrations.append(elapsed)
            self.cal_total += elapsed

    def scaled_times(self):
        """Each operation's time at nominal speed, from the calibration
        loops run within SCALE_WINDOW_S of it (from all, if none was)."""
        out = []
        for at, elapsed in zip(self.op_at, self.times):
            i = bisect_left(self.cal_at, at - SCALE_WINDOW_S)
            j = bisect_right(self.cal_at, at + elapsed + SCALE_WINDOW_S)
            near = self.calibrations[i:j] or self.calibrations
            out.append(elapsed * CAL_NOMINAL_S / statistics.mean(near))
        return out

    def execute(self, op, timed=True):
        from workloads import op_failed

        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # counted as a failed operation below
            out = exc
        elapsed = time.perf_counter() - start
        if timed:
            self.op_at.append(start)
            self.op_keys.append(op.key)
            self.times.append(elapsed)
            self.busy += elapsed
            self.attempted += 1
            self.calibrate()
        if isinstance(out, tuple) and self.workload.name == "cli":
            self.rss_kib = max(self.rss_kib, out[3])
        if op_failed(self.workload, op, out):
            self.failed += timed
            if not op.known_fault:
                self.errors.append(f"{op.key}: unexpected failure: {describe(out)}")
            return
        digest = op.digest(out)
        if self.first.setdefault(op.key, (op, out, digest))[2] != digest:
            self.errors.append(f"{op.key}: output differs from the first run of the same input")

    def finish(self):
        from reference import CheckError

        for key, (op, out, _) in self.first.items():
            try:
                op.check(out)
            except CheckError as exc:
                self.errors.append(f"{key}: {exc}")

    def rounds(self, seconds, before_op=lambda: None):
        """Whole rounds until the next one would end after `seconds`; at
        least one."""
        start = time.monotonic()
        while True:
            begin = time.monotonic()
            for op in self.workload.ops:
                before_op()
                self.execute(op)
            now = time.monotonic()
            if now - start + (now - begin) > seconds:
                return


def describe(out):
    if isinstance(out, BaseException):
        return f"{type(out).__name__}: {out}"
    code, _, err, _ = out
    return f"exit {code}, stderr {err.strip()[-200:]!r}"


def build(name, seed, smoke, inprocess_cli=False):
    import workloads

    if name == "cli":
        return workloads.cli(seed, smoke, inprocess=inprocess_cli)
    return workloads.WORKLOADS[name](seed, smoke)


# ---------------------------------------------------------------------------
# set-up and fixed-cost probes


def setup_probe(name, seed, smoke):
    """Child side: import, build inputs, one warm-up operation; then print
    the monotonic clock, which is system-wide on Linux."""
    wl = build(name, seed, smoke)
    Tally(wl).execute(wl.ops[0], timed=False)
    print(time.monotonic())


def measure_setup(name, seed, smoke, samples):
    """Median set-up time of `samples` child processes, raw and scaled."""
    cmd = [sys.executable, __file__, "--probe-setup", "--workload", name, "--seed", str(seed)]

    def probe():
        start = time.monotonic()
        proc = subprocess.run(cmd + (["--smoke"] if smoke else []),
                              capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        return float(proc.stdout.split()[-1]) - start

    runs = [bracketed(probe) for _ in range(samples)]
    return (statistics.median(setup for setup, _, _ in runs),
            statistics.median(setup * factor for setup, _, factor in runs))


def median_process_ms(code, samples):
    """Median time of `python -c code`, scaled to nominal speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", code]
    runs = [bracketed(lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60))
            for _ in range(samples)]
    return statistics.median(wall * factor for _, wall, factor in runs) * 1000


def cli_probes(seed, samples):
    """Fixed costs of the command line, paid by every invocation:
    interpreter start, `import kazhlip`, and cli.main in-process."""
    interpreter = median_process_ms("pass", samples)
    imported = median_process_ms("import kazhlip", samples)
    wl = build("cli", seed, smoke=False, inprocess_cli=True)
    tally = Tally(wl)
    for op in wl.ops:
        tally.execute(op)
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.main_ms": statistics.median(tally.scaled_times()) * 1000,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args):
    setup_raw, setup = measure_setup(args.workload, args.seed, args.smoke, 1 if args.smoke else SETUP_SAMPLES)
    wl = build(args.workload, args.seed, args.smoke)
    tally = Tally(wl)
    tally.execute(wl.ops[0], timed=False)  # warm-up, as in the set-up probe
    tally.rounds(args.seconds)
    tally.finish()
    if args.workload == "cli":  # the CLI process, not this one
        rss_kib = tally.rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def values(setup, times):
        return {
            "setup_s": setup,
            "peak_rss_mib": rss_kib / 1024,
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": quantile(times, 0.5) * 1000,
            "op_p90_ms": quantile(times, 0.9) * 1000,
        }

    scaled = values(setup, tally.scaled_times())
    metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END}
    return tally, metrics, {
        "inputs": wl.meta,
        "setup_samples": 1 if args.smoke else SETUP_SAMPLES,
        "raw": values(setup_raw, tally.times),
        "samples": {"op_at": tally.op_at, "op_s": tally.times, "op_key": tally.op_keys,
                    "cal_at": tally.cal_at, "cal_s": tally.calibrations},
    }


def traced(args):
    from tracer import Tracer

    wl = build(args.workload, args.seed, args.smoke, inprocess_cli=True)
    plain = Tally(wl)
    plain.execute(wl.ops[0], timed=False)
    plain.rounds(args.seconds / 2)
    tracer = Tracer()
    tally = Tally(wl, first=plain.first)  # traced outputs must equal untraced ones
    tracer.install()
    try:
        tally.rounds(args.seconds / 2, tracer.next_op)
    finally:
        tracer.uninstall()
    plain.finish()
    tally.errors = plain.errors + tally.errors
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    ops = len(tally.times)

    def calls(name):
        return tracer.stat(name)[0]

    def size(name):
        return tracer.stat(name)[2]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    reports = calls("bounds.bound_report")
    values = {f"{name}.calls": calls(name) / ops for name in CALL_COUNTS}
    values.update({f"{name}.self_pct": 100 * tracer.stat(name)[1] / tally.busy for name in SELF_SHARES})
    values.update({
        "plmap.compose.nodes_out_mean": ratio(size("plmap.compose"), calls("plmap.compose")),
        "koopman.pieces_per_apply": ratio(size("koopman.koopman_apply"), calls("koopman.koopman_apply")),
        "bounds.cells_per_report": ratio(size("bounds.bound_report"), reports),
        "groupact.global_fixed_set.calls_per_report": ratio(calls("groupact.global_fixed_set"), reports),
        "koopman.koopman_distortion.calls_per_report": ratio(calls("koopman.koopman_distortion"), reports),
        "groupact.ball.compose_per_element": ratio(tracer.ball_composes, size("groupact.ball")),
        "trace.overhead_ms_per_op": 1000 * (statistics.mean(tally.scaled_times())
                                            - statistics.mean(plain.scaled_times())),
    })
    values.update(cli_probes(args.seed, 1 if args.smoke else PROBE_SAMPLES))
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}.tsv"
    tracer.dump(spans)
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return tally, metrics, {"spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer.span_start),
                            "traced_ops": ops, "inputs": wl.meta}


def per_layer_units():
    units = {f"{name}.calls": "count" for name in CALL_COUNTS}
    units.update({f"{name}.self_pct": "%" for name in SELF_SHARES})
    units.update({
        "plmap.compose.nodes_out_mean": "count",
        "koopman.pieces_per_apply": "count",
        "bounds.cells_per_report": "count",
        "groupact.global_fixed_set.calls_per_report": "count",
        "koopman.koopman_distortion.calls_per_report": "count",
        "groupact.ball.compose_per_element": "count",
        "trace.overhead_ms_per_op": "ms",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "cli.main_ms": "ms",
    })
    return units


def provenance(args):
    import mpmath

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "working_precision_digits": mpmath.mp.dps,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run_all(args):
    """Every workload in its own process, printed as a table."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, one round, all checks")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0
    if not (SRC / "kazhlip" / "__init__.py").is_file():
        print(f"error: no kazhlip package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("KAZHLIP_PRECISION", None)  # the package default, 30 digits
    try:  # calibration loops and CLI children then run on the same CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    calibration_loop()  # warm, so that the first timed loop is like the rest
    tally, metrics, extra = (traced if args.trace else end_to_end)(args)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    source = provenance(args)
    source["inputs"] = extra.pop("inputs")
    details = {"provenance": source, "run": extra, "errors": tally.errors[:50], **result}
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=2) + "\n")
    for err in tally.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"provenance": source}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
