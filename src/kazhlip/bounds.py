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
from mpmath.libmp import mpf_div, mpf_gt, mpf_pow

# read at call time: `phi` and `phi-inv` run neither module
from . import groupact, koopman
from .errors import DomainError
from .intervals import _less
from .plmap import check_exact, format_rational
from .precision import ROUNDING, read_real, real_str, to_real

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
    return mpmath.log(t) / 2, kappa_max() * mpmath.sqrt(1 - t ** mpf("-0.5"))


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
    return p / 2 * d


def log_power_constant(p: mpf, L: mpf) -> mpf:
    """The constant c of the log-power inequality |x^{1/p} - 1| <= c for x
    in [1/L, L], c = log L / (p - log L). p and L are reals; p must exceed
    log L."""
    logL = mpmath.log(L)
    if p <= logL:
        raise DomainError(f"need p > log(L) = {logL}, got p={p}")
    return logL / (p - logL)


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


def _exponent(p, L: Fraction, M: Fraction):
    """A report's exponent p as a checked real, with the proof's per-n
    bound at p for n > M: Lemma 4.1's at p = 2, the L^p one at any other
    p, which needs p > log L and p >= 2."""
    p, Lr = read_real(p, "p"), to_real(L)
    if p == 2:
        root_L = mpmath.sqrt(Lr)

        def proof(n, nr):
            return mpmath.sqrt(2 - 2 * to_real(Fraction(n - M, n)) / root_L)
    else:
        # the log-power constant to the p bounds every weight |s^{1/p} - 1|^p
        weight_bound = log_power_constant(p, Lr) ** p
        if p < 2:
            raise DomainError(f"the L^p transfer needs p >= 2, got {p}")
        Mr = to_real(M)
        four_ML = 4 * Mr * Lr

        def proof(n, nr):
            return (four_ML / (2 * nr) + (nr + Mr) / nr * weight_bound) ** inv_p

    # `at` trusts p: this one check rejects the nan and inf that the
    # checks above let through
    p = koopman.check_exponent(p)
    inv_p = 1 / p
    return p, proof


def _cells(p: mpf, proof, powers, windows, M: Fraction) -> List[SweepCell]:
    """The window estimator's cells at the exponent p that `_exponent`
    checked, with its proof bound. `windows` holds each schedule entry n
    with n and 2n as reals, and `powers` each generator's 2n d^p for every
    n, as raw values. Each cell takes the largest 2n d^p over the generators,
    one p-th root, the transfer (p/2) d and, for n > M, the proof bound."""
    prec, r, make = mpmath.mp.prec, (1 / p)._mpf_, mpmath.mp.make_mpf
    cells = []
    for (n, nr, two_n), column in zip(windows, zip(*powers)):
        # on raw values, with the calls that max(...) and (top / two_n) **
        # (1 / p) make on mpfs
        top = None
        for power in column:
            if top is None or mpf_gt(power, top):
                top = power
        d = make(mpf_pow(mpf_div(top, two_n._mpf_, prec, ROUNDING), r, prec, ROUNDING))
        large = _less(M, n)  # n > M, on integers
        bound = proof(n, nr) if large else None
        cells.append(SweepCell(p, n, d, _transfer(p, d), bound, large))
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


def default_p_list(L: Fraction) -> List[int]:
    logL = mpmath.log(to_real(L)) if L > 1 else mpf(0)
    return [p for p in (2, 4, 8, 16, 32, 64) if p > logL]


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
    # each schedule entry n with the reals n and 2n
    windows = [(n, to_real(n), to_real(2 * n)) for n in ns]
    if p_list is None:
        p_list = default_p_list(L)
    exponents = [_exponent(p, L, M) for p in p_list]
    ps = [p for p, _ in exponents]
    # each map's rows of 2n d^p, one per exponent; a map keeps them, so a
    # report that repeats the last one on it builds nothing
    tables = [koopman.window_powers(g, ns, ps) for _, g in S.generators]
    sweep = tuple(
        cell
        for (p, proof), powers in zip(exponents, zip(*tables))
        for cell in _cells(p, proof, powers, windows, M)
    )

    lemma43, lemma41 = phi_inv_branches(to_real(L))
    phi_inv_L = min(lemma41, lemma43)
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
        headline=min([phi_inv_L, *(c.kappa_upper for c in sweep)]),
    )
