"""Print the count of a fixed set of bound reports and one SHA-256 over
every real they hold, bit for bit.

    PYTHONPATH=src python tools/report_bits.py

Run it on two checkouts, each with `PYTHONPATH=<checkout>/src`: equal
digests show that a change keeps every bit of every report.

The generator sets are each golden `bound` input that parses
(`tests/golden/bound/inputs`), a set of three maps whose square roots
of slopes round apart from exp(log(s) / 2), and sixteen sets drawn with
`kazhlip.verify.random_plhomeo`, four at each of the seeds 1, 7, 13 and
101. Each set is reported on at 15, 30 and 50 digits with each exponent
list of `P_LISTS`, twice on the same maps: cold, then warm, when each map
has its window data from the first report. The digest covers the raw
value (`mpf._mpf_`) of every cell's p, distortion, Kazhdan upper bound and
proof bound, and of each report's lemma41_bound, lemma43_bound,
phi_inv_of_L and headline. A report that the library refuses adds its
error message instead, and is counted as refused.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from kazhlip import DomainError, GeneratorSet, PLHomeo, bound_report
from kazhlip.precision import precision
from kazhlip.verify import random_plhomeo

INPUTS = Path(__file__).resolve().parents[1] / "tests" / "golden" / "bound" / "inputs"
SEEDS = (1, 7, 13, 101)
DIGITS = (15, 30, 50)
# the default list; powers of two; exponents that are not integers, which
# only sets with L < e^2.1 admit; and non-integers above log L of the
# drawn sets
P_LISTS = (None, [2, 16, 64], [2, "2.1", 3, "2.5", 7], [2, "9.5", "21.25"])


def generator_sets() -> list:
    """The sets, as (name, [(label, nodes), ...]); each report builds fresh
    maps from the nodes."""
    sets = []
    for path in sorted(INPUTS.glob("*.json")):
        try:
            S = GeneratorSet.from_json(path.read_text())
        except ValueError:  # the inputs of the CLI's failure cases
            continue
        sets.append((S.name, [(label, g.nodes) for label, g in S.generators]))
    # g^{-1} has slope 111/10, 82/47 or 187/35 on one piece; for these,
    # exp(log(s) / 2) and sqrt(s) round apart at 30 or 50 digits
    sets.append(("sqrt-apart", [
        (f"s{i}", ((0, 0), (a, b), (400, 400)))
        for i, (a, b) in enumerate(((111, 10), (82, 47), (187, 35)))
    ]))
    for seed in SEEDS:
        rng = random.Random(seed)
        for j in range(4):
            maps = [random_plhomeo(rng, max_nodes=40, max_mag=50) for _ in range(j + 2)]
            sets.append((f"seed{seed}-{j}", [(f"g{i}", g.nodes) for i, g in enumerate(maps)]))
    return sets


def raw(x) -> str:
    """An mpf's raw value (sign, mantissa, exponent, bit count), or '-'."""
    return "-" if x is None else "%d %d %d %d" % x._mpf_


def report_lines(report):
    """One line per cell and one for the report's own bounds."""
    for c in report.sweep:
        yield " ".join(map(raw, (c.p, c.distortion, c.kappa_upper, c.proof_bound)))
    yield " ".join(
        map(raw, (report.lemma41_bound, report.lemma43_bound, report.phi_inv_of_L, report.headline))
    )


def reports():
    """Every report, or the message of the DomainError that refuses it."""
    for name, gens in generator_sets():
        for digits in DIGITS:
            with precision(digits):
                for p_list in P_LISTS:
                    S = GeneratorSet(name, tuple((label, PLHomeo(nodes)) for label, nodes in gens))
                    for _ in ("cold", "warm"):
                        try:
                            yield bound_report(S, p_list)
                        except DomainError as exc:
                            yield f"refused: {exc}"


def digest(items) -> tuple:
    """(reports, refused, SHA-256 hex digest) over reports and refusals."""
    sha, made, refused = hashlib.sha256(), 0, 0
    for item in items:
        if isinstance(item, str):
            refused += 1
            lines = [item]
        else:
            made += 1
            lines = report_lines(item)
        for line in lines:
            sha.update(line.encode() + b"\n")
        sha.update(b"\n")
    return made, refused, sha.hexdigest()


def main() -> None:
    made, refused, hexdigest = digest(reports())
    print(f"reports {made} refused {refused} sha256 {hexdigest}")


if __name__ == "__main__":
    main()
