"""The four benchmark workloads.

A workload is built from a seed into one *round*: a fixed list of
operations. A run repeats whole rounds, so every run attempts the same
mix and the share of failed operations never depends on the run length.
Each operation carries the full independent check of its output, made the
first time the operation runs, and a digest that later rounds must
reproduce exactly.

Inputs are generated here and handed to kazhlip ready-made: the program
never sees the seed, except where the workload exercises the package's
own seeded suites (kazhlip.verify), which take a per-case seed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

import mpmath
from mpmath import mpf

import kazhlip.bounds as kb
import kazhlip.cli as kcli
import kazhlip.groupact as kg
import kazhlip.koopman as kk
import kazhlip.verify as kv
from kazhlip.plmap import PLHomeo

import reference as ref
from reference import close, require

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
TOL = mpf("1e-20")  # relative, at the package's 30-digit working precision


@dataclass
class Op:
    key: str                      # names the input; equal keys give equal outputs
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], object] = lambda out: out
    expected_code: int = 0        # CLI operations only
    known_fault: bool = False     # fails because of a known program fault (see README)


@dataclass
class Workload:
    name: str
    ops: List[Op]
    meta: dict = field(default_factory=dict)


def case_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def rational(rng, num, den) -> Fraction:
    return Fraction(rng.randint(*num), rng.randint(*den))


# ---------------------------------------------------------------------------
# bound-window: the paper's headline computation

P_LIST = (2, 16, 64)


def random_nodes(rng, count: int, fixed_left_ray: bool):
    """`count` nodes about 50 apart on [-1000, 1000], each moved by at most
    12, all with denominator 8. Every set then has M close to 12, Lip at
    most 25 (below e^16, so every p in P_LIST exceeds log L) and nodes
    spread alike, so reports cost about the same whatever the seed. With
    fixed_left_ray the first node is fixed, and so is (-inf, x_0]."""
    nodes = []
    for i in range(count):
        x = Fraction(-1000 * 8 + 400 * i * 40 // count + rng.randint(0, 200), 8)
        shift = 0 if fixed_left_ray and i == 0 else rng.randint(-96, 96)
        nodes.append((x, x + Fraction(shift, 8)))
    return nodes


def check_bound_report(maps, report) -> None:
    lip = max(ref.pl_lip(n) for n in maps)
    disp = max(ref.pl_displacement(n) for n in maps)
    require(report.L == lip and report.M == disp, f"L, M = {report.L}, {report.M}; expected {lip}, {disp}")
    no_common = not ref.common_fixed_points(maps)
    require(report.hypothesis_ok == no_common, f"hypothesis_ok={report.hypothesis_ok}, direct check says {no_common}")
    # The window covers every node and its image from N0 on.
    n0 = max(max(-min(x, y), max(x, y)) for n in maps for x, y in n)
    require(len(report.sweep) == len(P_LIST) * 13, f"{len(report.sweep)} cells")
    flat = {}
    for c in report.sweep:
        d = max(ref.window_distortion(n, c.n, c.p) for n in maps)
        close(c.distortion, d, TOL, f"d(p={c.p}, n={c.n})")
        close(c.kappa_upper, c.p / 2 * c.distortion, TOL, "kappa_upper = (p/2) d")
        require(c.n_large_enough == (c.n > disp), f"n_large_enough at n={c.n}")
        if c.n > disp:
            require(c.distortion <= c.proof_bound * (1 + TOL), f"d > proof bound at p={c.p}, n={c.n}")
        if c.n >= n0:
            flat.setdefault(int(c.p), []).append(2 * ref.real(c.n) * c.distortion ** c.p)
    for p in P_LIST:
        ks = flat.get(p, [])
        require(len(ks) >= 2, f"schedule has {len(ks)} entries n >= N0 at p={p}")
        for k in ks[1:]:
            close(k, ks[0], TOL, f"2n d^p constant for n >= N0 at p={p}")
    bound_l = ref.phi_inv(lip)
    close(report.phi_inv_of_L, bound_l, TOL, "phi_inv(L)")
    close(report.headline, min([bound_l] + [c.kappa_upper for c in report.sweep]), TOL, "headline = min")
    require(report.headline <= bound_l * (1 + TOL), "headline > phi_inv(L)")


def report_digest(report):
    return (report.headline, report.hypothesis_ok,
            tuple((c.p, c.n, c.distortion, c.kappa_upper, c.proof_bound) for c in report.sweep))


def bound_window(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    sets, nodes_per_map = (2, 8) if smoke else (4, 40)
    gens_per_set = 3 if smoke else 8
    ops = []
    for j in range(sets):
        shared_ray = j % 4 == 1  # one set in four has a global fixed ray
        maps = [random_nodes(rng, nodes_per_map, shared_ray) for _ in range(gens_per_set)]
        S = kg.GeneratorSet(
            f"random-{j}", tuple((f"g{i}", PLHomeo(tuple(n))) for i, n in enumerate(maps))
        )
        ops.append(Op(
            key=f"set{j}",
            run=lambda S=S: kb.bound_report(S, p_list=list(P_LIST)),
            check=lambda out, maps=maps: check_bound_report(maps, out),
            digest=report_digest,
        ))
    return Workload("bound-window", ops, meta={
        "sets": sets, "maps_per_set": gens_per_set, "nodes_per_map": nodes_per_map,
        "p_list": list(P_LIST), "n_schedule": "default: 2^k max(1, M), k = 0..12",
    })


# ---------------------------------------------------------------------------
# exact-group: Fraction-only group law and Cayley balls


def suites_pass(results) -> None:
    for name, cases, failures, _ in results:
        require(failures == 0, f"suite {name!r}: {failures} of {cases} failed")


def check_ball(maps, radius, elements) -> None:
    require(len(elements) <= 2 * 3**radius - 1, f"{len(elements)} elements in a radius-{radius} ball")
    lo = -radius * max(abs(n[-1][1] - n[-1][0]) + abs(n[0][0]) + abs(n[-1][0]) for n in maps.values()) - 1
    probes = [lo + Fraction(k * (2 * -lo), 13) + Fraction(1, 97) for k in range(14)]
    seen = {}
    for elem, word in elements:
        nodes = elem.nodes
        require(len(word) <= radius, f"word {word} longer than the radius")
        points = [x for x, _ in nodes] + [nodes[0][0] - 1, nodes[-1][0] + 1] + probes
        for x in points:
            require(ref.pl_eval(nodes, x) == ref.word_eval(word.letters, maps, x),
                    f"element of {word} differs from its word at x={x}")
        # Distinct values at a probe prove two elements distinct; equal
        # fingerprints are compared on both elements' breakpoints.
        fp = tuple(ref.pl_eval(nodes, x) for x in probes)
        for other in seen.get(fp, []):
            pts = {x for x, _ in nodes} | {x for x, _ in other} | {nodes[0][0] - 1, other[0][0] - 1,
                                                                     nodes[-1][0] + 1, other[-1][0] + 1}
            require(any(ref.pl_eval(nodes, x) != ref.pl_eval(other, x) for x in pts),
                    f"ball lists the element of {word} twice")
        seen.setdefault(fp, []).append(nodes)


def exact_group(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    cases, balls, radius = (6, 1, 3) if smoke else (300, 2, 6)
    ball_ops = []
    for j in range(balls):
        # A bump on [0, 2] and the translation by 1, as in acceptance
        # criterion 12; only the interior node varies, so balls cost alike.
        u = Fraction(rng.randint(1, 7), 4)
        v = Fraction(rng.randint(1, 5), 3)
        while v == u:  # u = v = 1 would make the bump the identity
            v = Fraction(rng.randint(1, 5), 3)
        zero, one, two = Fraction(0), Fraction(1), Fraction(2)
        maps = {"a": [(zero, zero), (u, v), (two, two)], "t": [(zero, one)]}
        S = kg.GeneratorSet(f"bump-translation-{j}", tuple((k, PLHomeo(tuple(n))) for k, n in maps.items()))
        ball_ops.append(Op(
            key=f"ball{j}",
            run=lambda S=S: kg.ball(S, radius),
            check=lambda out, maps=maps: check_ball(maps, radius, out),
            digest=lambda out: tuple((e.nodes, w.letters) for e, w in out),
        ))
    case_ops = []
    for i in range(cases):
        cs = case_seed(seed, i)
        case_ops.append(Op(
            key=f"case{i}",
            run=lambda cs=cs: kv.suite_group_axioms(1, cs) + kv.suite_homothety(1, cs),
            check=suites_pass,
        ))
    # Interleave: one ball before each equal share of the group-law cases.
    ops, share = [], cases // balls
    for j, b in enumerate(ball_ops):
        ops.append(b)
        ops.extend(case_ops[j * share:(j + 1) * share if j < balls - 1 else cases])
    return Workload("exact-group", ops, meta={
        "group_cases": cases, "balls": balls, "ball_radius": radius,
        "case_seeds": f"{seed} * 1000003 + i",
    })


# ---------------------------------------------------------------------------
# koopman-generic: the Koopman action on many-piece step functions

PS = (1, 2, 4, 16)


def random_step(rng):
    k = rng.randint(1, 6)
    bps = sorted({rational(rng, (-50, 50), (1, 50)) for _ in range(k + 1)})
    while len(bps) < 2:
        bps = sorted(set(bps) | {rational(rng, (-50, 50), (1, 50))})
    values = [mpf(rng.choice((-1, 1)) * rng.randint(100, 5000)) / 1000 for _ in bps[1:]]
    return bps, values


def random_small_map(rng):
    xs = sorted({rational(rng, (-60, 60), (1, 60)) for _ in range(rng.randint(1, 5))})
    ys = set()
    while len(ys) < len(xs):
        ys.add(rational(rng, (-60, 60), (1, 60)))
    return list(zip(xs, sorted(ys)))


def direct_koopman(g, xi, p, q):
    out = kk.koopman_apply(g, xi, p)
    return (out, kk.lp_norm(xi, p), kk.lp_norm(out, p),
            kk.koopman_distortion(g, xi, p), kk.mazur_map(xi, p, q))


def check_direct(nodes, bps, values, p, q, result) -> None:
    out, norm_in, norm_out, dist, mz = result
    ref_in = ref.lp_norm(bps, values, p)
    close(norm_in, ref_in, TOL, "lp_norm(xi)")
    close(norm_out, ref.lp_norm(out.breakpoints, out.values, p), TOL, "lp_norm(pi(g) xi)")
    close(ref.lp_norm(out.breakpoints, out.values, p), ref_in, TOL, "isometry")
    for a, b, v in zip(out.breakpoints, out.breakpoints[1:], out.values):
        close(v, ref.koopman_value(nodes, bps, values, p, (a + b) / 2), TOL, f"pi(g) xi on [{a}, {b})")
    # distortion over the pieces cut by xi's breakpoints, their images and g's nodes
    img_lo, img_hi = ref.pl_eval(nodes, bps[0]), ref.pl_eval(nodes, bps[-1])
    cuts = sorted(set(bps) | {ref.pl_eval(nodes, b) for b in bps} | {y for _, y in nodes if img_lo < y < img_hi})
    with mpmath.workdps(ref.REF_DIGITS):
        total = mpf(0)
        for a, b in zip(cuts, cuts[1:]):
            m = (a + b) / 2
            diff = ref.koopman_value(nodes, bps, values, p, m) - ref.step_value(bps, values, m)
            total += abs(diff) ** p * ref.real(b - a)
        close(dist, total ** (1 / mpf(p)), TOL, "koopman_distortion")
        for v, w in zip(values, mz.values):
            close(w, mpmath.sign(v) * abs(v) ** (mpf(p) / q), TOL, "mazur_map value")
    require(list(mz.breakpoints) == list(bps), "mazur_map moved breakpoints")


def koopman_generic(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    count = 6 if smoke else 240
    ops = []
    for i in range(count):
        cs = case_seed(seed, i)
        kind = i % 3
        if kind == 0:
            ops.append(Op(f"iso-hom{i}", lambda cs=cs: kv.suite_koopman(1, cs), suites_pass))
        elif kind == 1:
            ops.append(Op(f"mazur{i}", lambda cs=cs: kv.suite_mazur(3, cs), suites_pass))
        else:
            nodes = random_small_map(rng)
            bps, values = random_step(rng)
            p, q = rng.choice(PS), rng.choice(PS)
            g, xi = PLHomeo(tuple(nodes)), kk.StepFunction(tuple(bps), tuple(values))
            ops.append(Op(
                f"direct{i}",
                lambda g=g, xi=xi, p=p, q=q: direct_koopman(g, xi, p, q),
                lambda out, a=(nodes, bps, values, p, q): check_direct(*a, out),
                digest=lambda r: (r[0].breakpoints, r[0].values, r[1:4], r[4].values),
            ))
    return Workload("koopman-generic", ops, meta={
        "cases": count, "kinds": "suite_koopman(1), suite_mazur(3), direct apply/norm/mazur",
        "case_seeds": f"{seed} * 1000003 + i",
    })


# ---------------------------------------------------------------------------
# cli: one process per command


def bump_pair_obj():
    return {"name": "bump-pair", "symmetric": True, "generators": [
        {"label": "b", "map": {"nodes": [["0", "0"], ["1", "2"], ["3", "3"]]}},
        {"label": "B", "map": {"nodes": [["0", "0"], ["2", "1"], ["3", "3"]]}},
    ]}


BUMP_NODES = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(3))]
STAGE_NS = [2**k for k in range(1, 13)]


def write_cli_inputs(directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    bbt = bump_pair_obj()
    bbt["name"] = "bump-pair+t"
    bbt["symmetric"] = False
    bbt["generators"].append({"label": "t", "map": {"nodes": [["0", "1"]]}})
    files = {
        "bump_pair.json": json.dumps(bump_pair_obj()),
        "bumps.json": json.dumps({"name": "bumps", "generators": [
            {"label": "a", "map": {"nodes": [["0", "0"], ["1", "3/2"], ["2", "2"]]}},
            {"label": "b", "map": {"nodes": [["5", "5"], ["6", "13/2"], ["7", "7"]]}},
        ]}),
        "bbt.json": json.dumps(bbt),
        "stages.json": json.dumps({"labels": ["g"], "stages": [
            {"name": f"s{n}", "generators": [
                {"label": "g", "map": {"nodes": [["0", f"{n + 1}/{n}"], ["1", "2"]]}}]}
            for n in STAGE_NS]}),
        "nan_node.json": '{"name": "nan", "generators": [{"label": "a", '
                         '"map": {"nodes": [[NaN, 0], [1, 2]]}}]}',
    }
    paths = {}
    for name, text in files.items():
        path = directory / name
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
        paths[name] = str(path)
    return paths


def one_number(out: str) -> mpf:
    with mpmath.workdps(ref.REF_DIGITS):
        return mpf(out.strip())


def check_phi_table(out: str) -> None:
    rows = out.strip().splitlines()
    require(rows[0] == "t,exp_branch,rational_branch,max", f"header {rows[0]!r}")
    require(len(rows) == 142, f"{len(rows) - 1} rows, expected 141 for 0:1.4:0.01")
    with mpmath.workdps(ref.REF_DIGITS):
        for k, row in enumerate(rows[1:]):
            t, e, r, m = (mpf(v) for v in row.split(","))
            close(t, mpf(k) / 100, mpf("1e-25"), "grid point")
            close(e, mpmath.exp(2 * t), TOL, f"e^2t at t={t}")
            close(r, 4 / (2 - t * t) ** 2, TOL, f"4(2-t^2)^-2 at t={t}")
            require(m == max(e, r), f"max column at t={t}")


def check_bound_json(out: str) -> None:
    rep = json.loads(out)
    maps = [BUMP_NODES, ref.pl_inverse(BUMP_NODES), [(Fraction(0), Fraction(1))]]
    require(not ref.common_fixed_points(maps), "the reference finds a global fixed point")
    require(rep["hypothesis_ok"] is True, "hypothesis_ok")
    require((rep["L"], rep["M"]) == ("2", "1"), f"L, M = {rep['L']}, {rep['M']}")
    with mpmath.workdps(ref.REF_DIGITS):
        l41 = mpmath.sqrt(2) * mpmath.sqrt(1 - 1 / mpmath.sqrt(2))
        l43 = mpmath.log(2) / 2
        close(mpf(rep["lemma41_bound"]), l41, TOL, "lemma41_bound")
        close(mpf(rep["lemma43_bound"]), l43, TOL, "lemma43_bound")
        close(mpf(rep["phi_inv_of_L"]), ref.phi_inv(2), TOL, "phi_inv_of_L")
        kappas = []
        require(len(rep["sweep"]) == 26, f"{len(rep['sweep'])} cells, expected 2 p x 13 n")
        for c in rep["sweep"]:
            p, n = mpf(c["p"]), Fraction(c["n"])
            d = max(ref.window_distortion(m, n, p) for m in maps)
            close(mpf(c["distortion"]), d, TOL, f"d(p={p}, n={n})")
            close(mpf(c["kappa_upper"]), p / 2 * d, TOL, "kappa_upper")
            kappas.append(mpf(c["kappa_upper"]))
        close(mpf(rep["headline_kappa_upper"]), min([ref.phi_inv(2)] + kappas), TOL, "headline")


def check_limit_diag(out: str) -> None:
    diag = json.loads(out)
    n = STAGE_NS[-1]
    # Stage g_n = [(0, 1 + 1/n), (1, 2)] normalised by alpha = 1 + 1/n
    # moves 0 to 1, and g g moves 0 to (2 + 1/n)/(1 + 1/n).
    gg = Fraction(2 * n + 1, n + 1)
    require(diag["estimates"] == {"g": 1.0, "g g": float(gg)}, f"estimates {diag['estimates']}")
    require(diag["cauchy_ok"] == {"g": True, "g g": False}, f"cauchy_ok {diag['cauchy_ok']}")
    require(diag["lip_to_one"] == {"g": True}, "lip_to_one")
    require([s["max_lip"] for s in diag["stages"]] == [str(Fraction(m, m - 1)) for m in STAGE_NS], "Lip trend")
    require(all(s["max_disp_after_normalization"] == "1" for s in diag["stages"]), "normalisation")
    (defect,) = diag["defects"]
    require(defect["estimate_defect"] == float(2 - gg), f"defect {defect['estimate_defect']}")


def cli_run_subprocess(argv):
    """Run one CLI process; return (exit code, stdout, stderr, peak RSS KiB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = OUT_DIR / "cli.stdout", OUT_DIR / "cli.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "kazhlip.cli", *argv],
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss


def cli_run_inprocess(argv):
    """The same command through kazhlip.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = kcli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is what the command-line user sees
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), 0


def cli(seed: int, smoke: bool, inprocess: bool = False) -> Workload:
    paths = write_cli_inputs(OUT_DIR / "cli-inputs")
    run = cli_run_inprocess if inprocess else cli_run_subprocess
    hand = {
        "phi": lambda out: close(one_number(out), mpmath.exp(2), TOL, "phi(1) = e^2"),
        "phi-inv": lambda out: close(one_number(out), ref.phi_inv("10.5"), TOL, "phi_inv(10.5)"),
        "lip": lambda out: require(out.splitlines() == [
            "group: bump-pair", "  b: Lip = 2, displacement = 1",
            "  B: Lip = 2, displacement = 1", "L = 2, M = 1"], f"lip output {out!r}"),
        "fixed-points": lambda out: require(out == "global fixed set: (-inf, 0] U [2, 5] U [7, +inf)\n"
                                                   "verdict: nonempty\n", f"fixed set {out!r}"),
    }
    mix = [
        ("phi", ["phi", "1.0"], hand["phi"], 0, False),
        ("phi-inv", ["phi-inv", "10.5"], hand["phi-inv"], 0, False),
        ("phi-table", ["phi-table"], check_phi_table, 0, False),
        ("lip", ["lip", paths["bump_pair.json"]], hand["lip"], 0, False),
        ("fixed-points", ["fixed-points", paths["bumps.json"]], hand["fixed-points"], 0, False),
        ("bound", ["bound", paths["bbt.json"], "--p", "2,16", "--format", "json"], check_bound_json, 0, False),
        ("limit-diag", ["limit-diag", paths["stages.json"]], check_limit_diag, 0, False),
        # Known faults: each should exit cleanly with the code given.
        ("phi-nan", ["phi", "nan"], None, 1, True),
        ("bound-nan-node", ["bound", paths["nan_node.json"]], None, 2, True),
        ("phi-table-short-grid", ["phi-table", "--grid", "0:1"], None, 2, True),
    ]
    random.Random(seed).shuffle(mix)
    ops = [Op(key=key, run=lambda argv=argv: run(argv),
              check=(lambda out, c=check: c(out[1])) if check else (lambda out: None),
              digest=lambda out: out[:2], expected_code=code, known_fault=fault)
           for key, argv, check, code, fault in mix]
    return Workload("cli", ops, meta={"commands": [k for k, *_ in mix], "order_seed": seed})


WORKLOADS = {
    "bound-window": bound_window,
    "exact-group": exact_group,
    "koopman-generic": koopman_generic,
    "cli": cli,
}


def op_failed(workload: Workload, op: Op, out) -> bool:
    """A CLI operation fails on a wrong exit code or a traceback; an
    in-process operation fails when it raises."""
    if isinstance(out, BaseException):
        return True
    if workload.name == "cli":
        code, _, err, _ = out
        return code != op.expected_code or "Traceback" in err
    return False
