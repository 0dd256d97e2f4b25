"""Grid data and SVG rendering for the two bound-function graphs.

Each table holds, per grid point, both branches and their max (for phi) or
min (for phi_inv). The SVG renderer is self-contained: fixed 800x600
viewport, linear axes, two polyline curves, the crossover marked.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import List, Tuple

import mpmath
from mpmath import mpf

from .bounds import kappa_max, phi_branches, phi_crossover, phi_inv_branches
from .errors import DomainError, ResourceLimitError
from .precision import read_real, real_str

WIDTH, HEIGHT = 800, 600
MARGIN = 60
GRID_MAX_POINTS = 100_000


@dataclass(frozen=True)
class BranchTable:
    header: Tuple[str, ...]
    legend: Tuple[str, str]         # the two branches, as the SVG labels them
    rows: Tuple[Tuple[mpf, mpf, mpf, mpf], ...]  # (t, branch1, branch2, combined)
    crossover_t: mpf
    crossover_value: mpf

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow([real_str(v) for v in row])
        return buf.getvalue()


def _grid(start, end, step) -> List[mpf]:
    start, end, step = read_real(start, "start"), read_real(end, "end"), read_real(step, "step")
    if not all(mpmath.isfinite(v) for v in (start, end, step)):
        raise DomainError(f"grid values must be finite, got {start}:{end}:{step}")
    if step <= 0:
        raise DomainError(f"grid step must be positive, got {step}")
    if end < start:
        raise DomainError(f"grid end {end} below start {start}")
    if (end - start) / step >= GRID_MAX_POINTS:
        raise ResourceLimitError(
            f"grid {start}:{end}:{step} has more than {GRID_MAX_POINTS} points"
        )
    out = []
    t = start
    while t <= end + step / 2:
        out.append(t)
        t, last = t + step, t
        if t == last:  # the step vanishes in rounding: t would never reach end
            raise DomainError(f"grid step {step} is below the working precision at {t}")
    return out


def _branch_table(grid, branches, combine, header, legend, crossover) -> BranchTable:
    rows = []
    for t in grid:
        b1, b2 = branches(t)
        rows.append((t, b1, b2, combine(b1, b2)))
    return BranchTable(header, legend, tuple(rows), *crossover)


def phi_branch_table(start=0, end="1.4", step="0.01") -> BranchTable:
    """e^{2t} and 4(2-t^2)^{-2} with their max, on a grid in [0, sqrt2)."""
    grid = _grid(start, end, step)
    if grid[0] < 0 or grid[-1] >= kappa_max():
        raise DomainError("phi grid must stay inside [0, sqrt(2))")
    tstar = phi_crossover()
    return _branch_table(
        grid, phi_branches, max,
        header=("t", "exp_branch", "rational_branch", "max"),
        legend=("exp(2t)", "4(2-t^2)^-2"),
        crossover=(tstar, phi_branches(tstar)[0]),
    )


def phi_inv_branch_table(start=1, end=23, step="0.1") -> BranchTable:
    """(1/2) log t and sqrt2 (1 - t^{-1/2})^{1/2} with their min, on a grid
    in [1, oo)."""
    grid = _grid(start, end, step)
    if grid[0] < 1:
        raise DomainError("phi_inv grid must stay inside [1, oo)")
    tstar = phi_crossover()
    return _branch_table(
        grid, phi_inv_branches, min,
        header=("t", "log_branch", "sqrt_branch", "min"),
        legend=("log(t)/2", "sqrt(2)(1-t^-1/2)^1/2"),
        # phi_inv is the inverse of phi, so its min switches at phi(t*)
        crossover=(phi_branches(tstar)[0], tstar),
    )


def _polyline(points: List[Tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'


def render_svg(table: BranchTable) -> str:
    """Two curves, axes, legend, and the crossover point."""
    ts = [float(r[0]) for r in table.rows]
    b1 = [float(r[1]) for r in table.rows]
    b2 = [float(r[2]) for r in table.rows]
    tmin, tmax = min(ts), max(ts)
    vmin = min(min(b1), min(b2))
    vmax = max(max(b1), max(b2))
    if tmax == tmin or vmax == vmin:
        raise DomainError("degenerate grid; nothing to draw")

    def sx(t):
        return MARGIN + (t - tmin) / (tmax - tmin) * (WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - (v - vmin) / (vmax - vmin) * (HEIGHT - 2 * MARGIN)

    cx, cy = float(table.crossover_t), float(table.crossover_value)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        'stroke="black"/>',
        _polyline([(sx(t), sy(v)) for t, v in zip(ts, b1)], "green"),
        _polyline([(sx(t), sy(v)) for t, v in zip(ts, b2)], "blue"),
        f'<text x="{MARGIN}" y="{MARGIN - 30}" font-size="14" fill="green">'
        f"{table.legend[0]}</text>",
        f'<text x="{MARGIN}" y="{MARGIN - 12}" font-size="14" fill="blue">'
        f"{table.legend[1]}</text>",
        f'<text x="{MARGIN}" y="{HEIGHT - 20}" font-size="12">'
        f"t in [{tmin:g}, {tmax:g}]</text>",
    ]
    if tmin <= cx <= tmax and vmin <= cy <= vmax:
        parts.append(
            f'<circle cx="{sx(cx):.2f}" cy="{sy(cy):.2f}" r="4" fill="red"/>'
            f'<text x="{sx(cx) + 8:.2f}" y="{sy(cy) - 8:.2f}" font-size="12" '
            f'fill="red">crossover ({cx:.4f}, {cy:.4f})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
