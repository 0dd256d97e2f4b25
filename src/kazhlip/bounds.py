"""Upper bounds for Kazhdan constants of PL actions on the line.

The two bound functions link the largest generator Lipschitz constant L to
the Kazhdan constant of the generating set:

    phi(t)     = max{ e^{2t}, 4 (2 - t^2)^{-2} }        on [0, sqrt 2)
    phi_inv(t) = min{ (1/2) log t, sqrt2 (1 - t^{-1/2})^{1/2} }  on [1, oo)

The window-vector estimators compute, for a generating set S acting
without global fixed points, the distortions d_{p,n} = max_{g in S}
||pi(g) xi_n - xi_n||_p of the unit windows xi_n = (2n)^{-1/p} 1_{[-n,n]},
and transfer each to a Kazhdan upper bound (p/2) d_{p,n}, with the per-n
proof bound beside each; `estimate_p2` and `estimate_lp` add the analytic
n -> oo limit at one p. The headline bound is the minimum of phi_inv(L)
and the (p/2) d_{p,n} over the schedule cells.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    fhalf, fone, from_int, from_rational, mpf_add, mpf_div, mpf_gt, mpf_lt, mpf_mul, mpf_mul_int,
    mpf_neg, mpf_pow, mpf_rdiv_int, mpf_sqrt, mpf_sub,
)

# read at call time: `phi` and `phi-inv` run neither module
from . import groupact, koopman
from .errors import DomainError
from .intervals import _less
from .plmap import check_exact, format_rational
from .precision import ROUNDING, read_real, real_str, to_real

# The report's reals run on raw libmp values (`mpf._mpf_`), with the libmp
# calls that the mpf expressions in tests/oracles.py make, in their order,
# at `mpmath.mp.prec` and ROUNDING, so they keep those expressions' bits.
_TWO, _MINUS_HALF = from_int(2), mpf_neg(fhalf)


def kappa_max() -> mpf:
    return mpmath.sqrt(2)


def _finite(name: str, value) -> mpf:
    value = read_real(value, name)
    if not mpmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def phi(t) -> mpf:
    """max{e^{2t}, 4(2 - t^2)^{-2}} on [0, sqrt 2)."""
    t = _finite("t", t)
    if t < 0 or t >= kappa_max():
        raise DomainError(f"phi is defined on [0, sqrt(2)), got {t}")
    return max(phi_branches(t))


def phi_branches(t: mpf) -> Tuple[mpf, mpf]:
    """The two branches e^{2t} and 4 (2 - t^2)^{-2} of phi, for t in
    [0, sqrt 2); phi is their maximum."""
    return mpmath.e ** (2 * t), 4 / (2 - t * t) ** 2


def phi_inv_branches(t: mpf) -> Tuple[mpf, mpf]:
    """The two branches (1/2) log t and sqrt2 (1 - t^{-1/2})^{1/2} of
    phi_inv, for t >= 1; phi_inv is their minimum."""
    log_branch, sqrt_branch = _phi_inv_branches(t._mpf_, mpmath.log(t)._mpf_)
    return mpmath.mp.make_mpf(log_branch), mpmath.mp.make_mpf(sqrt_branch)


def _phi_inv_branches(t: tuple, log_t: tuple) -> Tuple[tuple, tuple]:
    """phi_inv_branches on the raw values of t and log t."""
    prec = mpmath.mp.prec
    gap = mpf_sub(fone, mpf_pow(t, _MINUS_HALF, prec, ROUNDING), prec, ROUNDING)  # 1 - t^{-1/2}
    root = mpf_sqrt(gap, prec, ROUNDING)
    return (
        mpf_div(log_t, _TWO, prec, ROUNDING),
        mpf_mul(mpf_sqrt(_TWO, prec, ROUNDING), root, prec, ROUNDING),
    )


def phi_inv(t) -> mpf:
    """min{(1/2) log t, sqrt2 (1 - t^{-1/2})^{1/2}} on [1, oo)."""
    t = _finite("t", t)
    if t < 1:
        raise DomainError(f"phi_inv is defined on [1, oo), got {t}")
    return min(phi_inv_branches(t))


def phi_crossover() -> mpf:
    """The unique t* in (0, sqrt 2) where the two phi branches cross,
    located by bisection on the monotone gap 2t - log4 + 2 log(2 - t^2)
    until the bracket holds no real between its ends at the working
    precision."""

    def gap(t):
        return 2 * t - mpmath.log(4) + 2 * mpmath.log(2 - t * t)

    lo, hi = mpf(1), mpf("1.3")
    if not (gap(lo) > 0 and gap(hi) < 0):
        raise DomainError("crossover bracket [1, 1.3] invalid at this precision")
    while True:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return mid
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid


def kappa_transfer(p, distortion) -> mpf:
    """Kazhdan upper bound (p/2) * d implied by one unit test vector whose
    max distortion over S is d, valid for p >= 2."""
    p = _finite("p", p)
    d = _finite("distortion", distortion)
    if p < 2:
        raise DomainError(f"the L^p transfer needs p >= 2, got {p}")
    if d < 0:
        raise DomainError(f"distortion must be >= 0, got {d}")
    return _transfer(p, d)


def _transfer(p: mpf, d: mpf) -> mpf:
    """(p/2) d for reals that kappa_transfer would accept."""
    prec = mpmath.mp.prec
    return mpmath.mp.make_mpf(mpf_mul(_half(p._mpf_), d._mpf_, prec, ROUNDING))


def _half(p: tuple) -> tuple:
    """p/2, the factor of the transfer, on a raw value."""
    return mpf_div(p, _TWO, mpmath.mp.prec, ROUNDING)


def log_power_constant(p: mpf, L: mpf) -> mpf:
    """The constant c of the log-power inequality |x^{1/p} - 1| <= c for x
    in [1/L, L], c = log L / (p - log L). p and L are reals; p must exceed
    log L."""
    return mpmath.mp.make_mpf(_log_power_constant(p, mpmath.log(L)))


def _log_power_constant(p: mpf, log_L: mpf) -> tuple:
    """log_power_constant from log L, as a raw value."""
    if p <= log_L:
        raise DomainError(f"need p > log(L) = {log_L}, got p={p}")
    prec, log_L = mpmath.mp.prec, log_L._mpf_
    return mpf_div(log_L, mpf_sub(p._mpf_, log_L, prec, ROUNDING), prec, ROUNDING)


def log_power_bound_check(x, p, L) -> Tuple[bool, mpf]:
    """Check the log-power inequality for L > 1, x in [1/L, L], p > log L;
    returns (ok, slack) with slack = bound - |x^{1/p} - 1|."""
    x, p, L = _finite("x", x), _finite("p", p), _finite("L", L)
    if L <= 1:
        raise DomainError(f"need L > 1, got {L}")
    if x < 1 / L or x > L:
        raise DomainError(f"need x in [1/L, L], got x={x}, L={L}")
    slack = log_power_constant(p, L) - abs(x ** (1 / p) - 1)
    return slack >= 0, slack


def corollary_bound(set_size: int) -> mpf:
    """Kazhdan upper bound phi_inv(|S|) for a symmetric generating set of
    an orderable group (the generators then act with Lip <= |S|)."""
    if set_size < 1:
        raise DomainError(f"set size must be >= 1, got {set_size}")
    return phi_inv(set_size)


def theorem_check(S: groupact.GeneratorSet, kappa_candidate) -> bool:
    """Whether L = max Lip(g) >= phi(kappa_candidate), i.e. whether the
    candidate Kazhdan constant is consistent with the action."""
    L = to_real(S.max_lip())
    return L >= phi(kappa_candidate)


# ---------------------------------------------------------------------------
# Window-vector estimator sweeps


@dataclass(frozen=True)
class SweepCell:
    """One (p, n) cell of an estimator sweep."""

    p: mpf
    n: Fraction
    distortion: mpf            # d_{p,n} = max_{g in S} ||pi(g) xi_n - xi_n||_p
    kappa_upper: mpf           # (p/2) * d_{p,n}
    proof_bound: Optional[mpf]  # per-n certified bound from the proof inequality
    n_large_enough: bool       # n > M, so the proof's tail bookkeeping applies


@dataclass(frozen=True)
class EstimateFragment:
    p: mpf
    L: Fraction
    M: Fraction
    cells: Tuple[SweepCell, ...]
    analytic_bound: mpf         # n -> oo limit bound at this p
    hypothesis_ok: bool         # global fixed set empty


def _exponent(p, L: mpf, log_L: mpf, M: Fraction):
    """A report's exponent p as a checked real, with the proof's per-n
    bound at p for n > M: Lemma 4.1's at p = 2, the L^p one at any other
    p, which needs p > log L and p >= 2. L and log L are reals. Returns p,
    1/p as a raw value, and the bound, which takes n as a Fraction and as a
    raw real and gives a raw real."""
    p, prec = read_real(p, "p"), mpmath.mp.prec
    if p == 2:
        root_L = mpf_sqrt(L._mpf_, prec, ROUNDING)
        c, d = M.as_integer_ratio()

        def proof(n, nr):
            # sqrt(2 - 2 ((n - M)/n) / sqrt L), with (n - M)/n = (a d - c b)
            # / (a d) for n = a/b and M = c/d
            a, b = n.as_integer_ratio()
            ratio = from_rational(a * d - c * b, a * d, prec, ROUNDING)
            scaled = mpf_div(mpf_mul_int(ratio, 2, prec, ROUNDING), root_L, prec, ROUNDING)
            return mpf_sqrt(mpf_sub(_TWO, scaled, prec, ROUNDING), prec, ROUNDING)
    else:
        # the log-power constant to the p bounds every weight |s^{1/p} - 1|^p
        weight_bound = mpf_pow(_log_power_constant(p, log_L), p._mpf_, prec, ROUNDING)
        if p < 2:
            raise DomainError(f"the L^p transfer needs p >= 2, got {p}")
        Mr = to_real(M)._mpf_
        four_ML = mpf_mul(mpf_mul_int(Mr, 4, prec, ROUNDING), L._mpf_, prec, ROUNDING)

        def proof(n, nr):
            # (4 M L / (2n) + ((n + M)/n) weight_bound)^{1/p}
            tail = mpf_div(four_ML, mpf_mul_int(nr, 2, prec, ROUNDING), prec, ROUNDING)
            share = mpf_div(mpf_add(nr, Mr, prec, ROUNDING), nr, prec, ROUNDING)
            body = mpf_mul(share, weight_bound, prec, ROUNDING)
            return mpf_pow(mpf_add(tail, body, prec, ROUNDING), inv_p, prec, ROUNDING)

    # `at` trusts p: this one check rejects the nan and inf that the
    # checks above let through
    p = koopman.check_exponent(p)
    inv_p = mpf_rdiv_int(1, p._mpf_, prec, ROUNDING)
    return p, inv_p, proof


def _cells(p: mpf, inv_p: tuple, proof, powers, windows) -> List[SweepCell]:
    """The window estimator's cells at the exponent p that `_exponent`
    checked, with its 1/p and proof bound. `windows` holds each schedule
    entry n with n and 2n as raw reals and whether n > M, and `powers` each
    generator's 2n d^p for every n, as raw values. Each cell takes the
    largest 2n d^p over the generators, one p-th root, the transfer
    (p/2) d and, for n > M, the proof bound, and makes one mpf of each."""
    prec, make, half = mpmath.mp.prec, mpmath.mp.make_mpf, _half(p._mpf_)
    cells = []
    for (n, nr, two_n, large), column in zip(windows, zip(*powers)):
        # the calls that max(...) and (top / two_n) ** (1 / p) make on mpfs
        top = None
        for power in column:
            if top is None or mpf_gt(power, top):
                top = power
        d = mpf_pow(mpf_div(top, two_n, prec, ROUNDING), inv_p, prec, ROUNDING)
        kappa = mpf_mul(half, d, prec, ROUNDING)
        bound = make(proof(n, nr)) if large else None
        cells.append(SweepCell(p, n, make(d), make(kappa), bound, large))
    return cells


def estimate_p2(S: groupact.GeneratorSet, n_schedule: Sequence) -> EstimateFragment:
    """L^2 window estimator: per-n distortions d_n, the proof's per-n
    certified bound sqrt(2 - 2 ((n-M)/n) L^{-1/2}) for n > M, and the
    analytic limit sqrt2 (1 - L^{-1/2})^{1/2}."""
    return estimate_lp(S, 2, n_schedule)


def estimate_lp(S: groupact.GeneratorSet, p, n_schedule: Sequence) -> EstimateFragment:
    """The cells of `bound_report` at the one exponent p, with the analytic
    n -> oo limit of their proof bound: at p = 2 that of `estimate_p2`,
    at any other p (which must exceed log L) p/2 times the log-power
    constant, whose p -> oo limit is (1/2) log L."""
    report = bound_report(S, [p], n_schedule)
    p = to_real(p)
    if p == 2:
        analytic = report.lemma41_bound
    else:
        analytic = _transfer(p, log_power_constant(p, to_real(report.L)))
    return EstimateFragment(p, report.L, report.M, report.sweep, analytic, report.hypothesis_ok)


SCHEDULE_KMAX = 12


def default_n_schedule(M: Fraction) -> List[Fraction]:
    """Geometric schedule n = 2^k max(1, M), k = 0..SCHEDULE_KMAX."""
    base = max(Fraction(1), M)
    return [base * 2**k for k in range(SCHEDULE_KMAX + 1)]


def default_p_list(log_L: mpf) -> List[int]:
    """The exponents 2, 4, ..., 64 above log L, the real log of the largest
    Lipschitz constant: a report's exponents when it is given none."""
    return [p for p in (2, 4, 8, 16, 32, 64) if p > log_L]


@dataclass(frozen=True)
class BoundReport:
    """All Kazhdan upper-bound data for one generating set."""

    group_name: str
    per_generator: Tuple[groupact.LipRow, ...]
    L: Fraction
    M: Fraction
    hypothesis_ok: bool
    sweep: Tuple[SweepCell, ...]
    lemma41_bound: mpf         # sqrt2 (1 - L^{-1/2})^{1/2}
    lemma43_bound: mpf         # (1/2) log L
    phi_inv_of_L: mpf          # min of the two
    headline: mpf              # min over sweep and analytic bounds

    def label_hash(self) -> str:
        import hashlib  # here, so that `phi` and `phi-inv` never load it

        labels = sorted(label for label, _, _ in self.per_generator)
        digest = hashlib.sha256("|".join(labels).encode()).hexdigest()
        return digest[:12]

    def to_obj(self) -> dict:
        return {
            "group_name": self.group_name,
            "label_hash": self.label_hash(),
            "hypothesis_ok": self.hypothesis_ok,
            **groupact.lipschitz_obj(self.per_generator, self.L, self.M),
            "lemma41_bound": real_str(self.lemma41_bound),
            "lemma43_bound": real_str(self.lemma43_bound),
            "phi_inv_of_L": real_str(self.phi_inv_of_L),
            "kappa_max": real_str(kappa_max()),
            "headline_kappa_upper": real_str(self.headline),
            "sweep": [
                {
                    "p": real_str(c.p),
                    "n": format_rational(c.n, f"sweep[{i}].n"),
                    "distortion": real_str(c.distortion),
                    "kappa_upper": real_str(c.kappa_upper),
                    "proof_bound": None if c.proof_bound is None else real_str(c.proof_bound),
                    "n_large_enough": c.n_large_enough,
                }
                for i, c in enumerate(self.sweep)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2)

    def to_csv(self) -> str:
        """One row per sweep cell, from the strings of `to_obj`."""
        obj = self.to_obj()
        head = ("group_name", "label_hash")
        tail = ("lemma41_bound", "lemma43_bound", "phi_inv_of_L")
        first, last = [obj[k] for k in head], [obj[k] for k in tail]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([*head, "p", "n", "d", "kappa_upper", *tail])
        for c in obj["sweep"]:
            writer.writerow([*first, c["p"], c["n"], c["distortion"], c["kappa_upper"], *last])
        return buf.getvalue()


def bound_report(
    S: groupact.GeneratorSet,
    p_list: Optional[Sequence] = None,
    n_schedule: Optional[Sequence] = None,
) -> BoundReport:
    """Full estimator report: per-generator data, the (p, n) sweep, the
    analytic bounds, and the headline (minimum) certified upper bound."""
    per_generator, L, M = S.lipschitz_data()
    if n_schedule is None:
        n_schedule = default_n_schedule(M)
    if not n_schedule:
        raise DomainError("empty n schedule")
    ns = []
    for i, n in enumerate(n_schedule):
        n = check_exact(n, f"schedule[{i}]")
        if n <= 0:
            raise DomainError(
                f"schedule entries must be positive, got {format_rational(n, 'schedule')}"
            )
        ns.append(n)
    # each schedule entry n with n and 2n as raw reals, and whether n > M
    prec, windows = mpmath.mp.prec, []
    for n in ns:
        a, b = n.as_integer_ratio()
        nr, two_n = from_rational(a, b, prec, ROUNDING), from_rational(2 * a, b, prec, ROUNDING)
        windows.append((n, nr, two_n, _less(M, n)))
    # L and log L once per report
    Lr = to_real(L)
    log_L = mpmath.log(Lr)
    if p_list is None:
        p_list = default_p_list(log_L)
    exponents = [_exponent(p, Lr, log_L, M) for p in p_list]
    ps = [p for p, _, _ in exponents]
    # each map's rows of 2n d^p, one per exponent; a map keeps them, so a
    # report that repeats the last one on it builds nothing
    tables = [koopman.window_powers(g, ns, ps) for _, g in S.generators]
    sweep = tuple(
        cell
        for (p, inv_p, proof), powers in zip(exponents, zip(*tables))
        for cell in _cells(p, inv_p, proof, powers, windows)
    )

    lemma43, lemma41 = map(mpmath.mp.make_mpf, _phi_inv_branches(Lr._mpf_, log_L._mpf_))
    phi_inv_L = min(lemma41, lemma43)
    # the minimum that min([phi_inv_L, *kappa_uppers]) takes, on raw values
    headline = phi_inv_L
    for cell in sweep:
        if mpf_lt(cell.kappa_upper._mpf_, headline._mpf_):
            headline = cell.kappa_upper
    return BoundReport(
        group_name=S.name,
        per_generator=per_generator,
        L=L,
        M=M,
        hypothesis_ok=groupact.global_fixed_set(S).is_empty,
        sweep=sweep,
        lemma41_bound=lemma41,
        lemma43_bound=lemma43,
        phi_inv_of_L=phi_inv_L,
        headline=headline,
    )
