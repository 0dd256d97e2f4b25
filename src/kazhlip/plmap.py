"""Exact algebra of piecewise-linear, orientation-preserving homeomorphisms
of the real line with slope-1 translation tails.

Every map is stored as a strictly increasing node list ((x_0, y_0), ...,
(x_k, y_k)) of exact rationals. Between consecutive nodes the map
interpolates linearly; outside [x_0, x_k] it translates: f(x) = x + (y_0 -
x_0) on the left and f(x) = x + (y_k - x_k) on the right. Translation
tails make bounded displacement structural, and the class is closed under
composition and inversion, so it forms a group under exact rational
arithmetic.

Canonical form: nodes whose left and right slopes agree are removed; a
pure translation by c collapses to the single node (0, c) and the
identity to (0, 0). Canonical node tuples are the equality oracle. Maps
built from caller nodes are validated and canonicalised; the group
operations build results that are canonical by construction and skip both.

Coordinates are ints or Fractions. Each exact result (a value, a slope, a
root) is formed from the integer numerators and denominators of its inputs
and normalised once, as one Fraction(num, den).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Tuple

from .errors import DomainError, ResourceLimitError, SchemaError
from .intervals import IntervalUnion

Node = Tuple[Fraction, Fraction]

# The largest decimal exponent a number string may carry: the limit Python
# puts on the digits of a decimal integer string. Fraction("1e400000000")
# would otherwise build a 400-million-digit integer, and mpf would spend as
# long on a power of ten. Both read "_" between digits, and mpf a trailing "l".
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)l*$", re.IGNORECASE)


def check_decimal_exponent(text: str, path: str = "") -> None:
    """Raise SchemaError if the number string `text` carries a decimal
    exponent over MAX_DECIMAL_EXPONENT in magnitude."""
    m = _EXPONENT.search(text.strip())
    if not m:
        return
    digits = m[1].replace("_", "").lstrip("0")
    # the length test keeps int() off a digit string over Python's limit
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise SchemaError(
            f"decimal exponent of {text[:40]!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude", path
        )


def parse_rational(text, path: str = "") -> Fraction:
    """Parse an exact rational from a "p/q", integer or decimal string. JSON
    ints are taken as they are, and a finite JSON float as the decimal it
    was written as (1e-13 is 1/10^13, 0.1 is 1/10). A decimal exponent may
    be at most MAX_DECIMAL_EXPONENT in magnitude."""
    if isinstance(text, bool):
        raise SchemaError("expected a rational, got a boolean", path)
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        text = text.strip()
        check_decimal_exponent(text, path)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"invalid rational {text!r}: {exc}", path) from exc
    if isinstance(text, float):
        if not math.isfinite(text):
            raise SchemaError(f"expected a finite rational, got {text}", path)
        return Fraction(repr(text))
    raise SchemaError(f"expected a rational string, got {type(text).__name__}", path)


def format_rational(q: Fraction, path: str = "") -> str:
    """The exact form "p" or "p/q" of a rational. A numerator or denominator
    over Python's limit on the digits of an integer string raises
    ResourceLimitError, naming the field at `path`."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # int -> str past sys.get_int_max_str_digits()
        where = f"{path}: " if path else ""
        raise ResourceLimitError(
            f"{where}the exact rational has more digits than Python prints in an integer"
        ) from exc


def check_exact(c, path: str):
    """c, if it is an int or a Fraction: the kernel reads the numerator and
    denominator of every coordinate, so a float is never rounded silently.
    Anything else raises DomainError naming its field, `path`."""
    if isinstance(c, (int, Fraction)):
        return c
    raise DomainError(f"{path}: expected an int or a Fraction, got {type(c).__name__}")


def _slope_pairs(nodes: Sequence[Node]) -> list:
    """The slope of every piece of the map, as an unreduced pair of ints
    (num, den), den > 0: the left tail's, then one per pair of consecutive
    nodes, then the right tail's. Coordinates are ints or Fractions."""
    pairs = [(1, 1)]
    x0, y0 = nodes[0]
    (a, b), (c, d) = x0.as_integer_ratio(), y0.as_integer_ratio()
    for x1, y1 in nodes[1:]:
        (e, f), (g, h) = x1.as_integer_ratio(), y1.as_integer_ratio()
        # (g/h - c/d) / (e/f - a/b) = (g d - c h) b f / ((e b - a f) d h)
        pairs.append(((g * d - c * h) * b * f, (e * b - a * f) * d * h))
        a, b, c, d = e, f, g, h
    pairs.append((1, 1))
    return pairs


def _checked_slopes(nodes: Sequence[Node]) -> list:
    """The slope pairs of a caller's node list, which this validates: the
    coordinates are ints or Fractions, and both increase strictly."""
    if not nodes:
        raise DomainError("a PL map needs at least one node")
    for i, node in enumerate(nodes):
        for j, c in enumerate(node):
            check_exact(c, f"nodes[{i}][{j}]")
    # Each pair is (rise b f, run d h) with b, d, f, h > 0, so a coordinate
    # increases exactly when its factor is positive.
    # format_rational: a coordinate may have more digits than str() prints
    pairs = _slope_pairs(nodes)
    for i, (num, den) in enumerate(pairs[1:-1], 1):
        if den <= 0:
            x = format_rational(nodes[i][0], f"nodes[{i}][0]")
            raise DomainError(f"x-coordinates not strictly increasing at x={x}")
        if num <= 0:
            y = format_rational(nodes[i][1], f"nodes[{i}][1]")
            raise DomainError(f"y-coordinates not strictly increasing at y={y}")
    return pairs


def _drop_collinear(nodes: Sequence[Node], pairs: list) -> Tuple[Node, ...]:
    """The canonical form of a strictly increasing node list, whose slope
    pairs are `pairs`."""
    # Node i sits between pairs[i] and pairs[i + 1]. Removing a collinear
    # node never changes its neighbours' slopes, so a single pass suffices.
    # Both denominators are positive, so the slopes differ exactly when
    # their cross-products do.
    kept = tuple(
        node
        for node, (n0, d0), (n1, d1) in zip(nodes, pairs, pairs[1:])
        if n0 * d1 != n1 * d0
    )
    if kept:
        return kept
    # Everything collapsed: the map is a pure translation.
    x0, y0 = nodes[0]
    c = y0 - x0
    return ((Fraction(0), c),)


# Order decisions compare rationals a/b and c/d, b, d > 0, by the sign of
# the integer c b - a d, never as Fractions.


def merge_sorted(xs: Sequence, us: Sequence) -> list:
    """The union of the increasing rational lists xs and us, in order, as
    tuples (x, i, j, from_xs): i and j count the elements of xs and of us
    at or left of x, and from_xs says whether x is an element of xs. On
    equal values both lists step and the element of xs is kept.

    A list that is used up reads as 1/0, +infinity, so the merge has no
    end-of-list case; an element's numerator and denominator are read when
    the merge reaches it."""
    out = []
    m, n = len(xs), len(us)
    i = j = 0
    a, b = xs[0].as_integer_ratio() if m else (1, 0)
    c, d = us[0].as_integer_ratio() if n else (1, 0)
    while i < m or j < n:
        s = c * b - a * d  # the sign of us[j] - xs[i]
        if s <= 0:
            x = us[j]
            j += 1
            c, d = us[j].as_integer_ratio() if j < n else (1, 0)
        if s >= 0:
            x = xs[i]
            i += 1
            a, b = xs[i].as_integer_ratio() if i < m else (1, 0)
        out.append((x, i, j, s >= 0))
    return out


def evaluate_sorted(xs: Sequence, ys: Sequence, points: Iterable) -> list:
    """The PL map through the increasing nodes (xs[i], ys[i]), with slope-1
    tails, at each of the increasing rational points, in one pass over the
    nodes. The values are Fractions, also for int nodes and int points.
    With xs and ys swapped it is the inverse map.

    Each point is located by integer cross-products: the pass steps to the
    next node, and bisects past any further ones, so a few points on k
    nodes cost O(log k). Each value is built from the numerators and
    denominators of the point and its nodes and normalised once."""
    out = []
    last = len(xs) - 1
    # xs[i - 1] = a/b <= x < xs[i] = e/f
    i, a, b = 0, None, None
    e, f = xs[0].as_integer_ratio()
    seg = line = None
    for x in points:
        p, q = x.as_integer_ratio()
        if e * q <= p * f:  # x is at or past xs[i]: step to it
            i += 1
            a, b = e, f
            e, f = xs[i].as_integer_ratio() if i <= last else (1, 0)
            if e * q <= p * f:  # and past xs[i] too: bisect the rest
                i = bisect_right(
                    xs, False, i + 1, key=lambda c: c.numerator * q > p * c.denominator
                )
                a, b = xs[i - 1].as_integer_ratio()
                e, f = xs[i].as_integer_ratio() if i <= last else (1, 0)
        if i and a * q == p * b:
            y = ys[i - 1]
            out.append(y if type(y) is Fraction else Fraction(y))
            continue
        if i != seg:
            # piece i's line through the node at x = u/v:
            # y = (s q + t (p v - u q)) / (w q)
            seg = i
            if 0 < i <= last:
                # y0 + (x - x0)(y1 - y0)/(x1 - x0) with x0 = a/b, y0 = c/d,
                # x1 = e/f, y1 = g/h and x = p/q
                (c, d), (g, h) = ys[i - 1].as_integer_ratio(), ys[i].as_integer_ratio()
                run = e * b - a * f
                line = (a, b, c * h * run, f * (g * d - c * h), d * h * run)
            else:
                # a tail: x + (y_j - x_j) at the end node j, x_j = u/v, y_j = c/d
                u, v, y = (e, f, ys[0]) if i == 0 else (a, b, ys[last])
                c, d = y.as_integer_ratio()
                line = (u, v, c * v, d, v * d)
        u, v, s, t, w = line
        out.append(Fraction(s * q + t * (p * v - u * q), w * q))
    return out


def _shifted(coords: Sequence, c, sign: int = 1) -> list:
    """x + sign * c for each coordinate x, with sign 1 or -1: an int when x
    and c are ints, and otherwise one Fraction(num, den) of integer
    cross-products."""
    u, v = c.as_integer_ratio()
    u *= sign
    ints = type(c) is int
    out = []
    for x in coords:
        if ints and type(x) is int:
            out.append(x + u)
        else:
            a, b = x.as_integer_ratio()
            out.append(Fraction(a * v + u * b, b * v))
    return out


@dataclass(frozen=True)
class PLHomeo:
    """An element of the bounded-displacement PL homeomorphism group."""

    nodes: Tuple[Node, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", _drop_collinear(nodes, _checked_slopes(nodes)))

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, nodes: Tuple[Node, ...]) -> "PLHomeo":
        """The map with these nodes, which must already be canonical: no
        validation and no __post_init__."""
        f = object.__new__(cls)
        object.__setattr__(f, "nodes", nodes)
        return f

    @staticmethod
    def from_pairs(pairs: Iterable) -> "PLHomeo":
        return PLHomeo(tuple(map(tuple, pairs)))

    @staticmethod
    def identity() -> "PLHomeo":
        return PLHomeo._canonical(((Fraction(0), Fraction(0)),))

    @staticmethod
    def translation(c) -> "PLHomeo":
        return PLHomeo._canonical(((Fraction(0), check_exact(c, "c")),))

    # -- equality -------------------------------------------------

    def _int_key(self) -> tuple:
        """The numerator and the denominator of every coordinate of the
        canonical nodes, in one flat tuple: equal exactly when the maps
        are, whether a coordinate is an int or a Fraction, and it holds
        the ints the Fractions already hold."""
        parts = [x.as_integer_ratio() + y.as_integer_ratio() for x, y in self.nodes]
        return tuple(chain.from_iterable(parts))

    # Equality and the hash read the nodes as ints, never through
    # Fraction.__eq__ or Fraction.__hash__.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._int_key() == other._int_key()

    def __hash__(self):
        return hash(self._int_key())

    # -- basic queries -------------------------------------------------

    def evaluate(self, x) -> Fraction:
        xs, ys = zip(*self.nodes)
        return evaluate_sorted(xs, ys, (check_exact(x, "x"),))[0]

    def __call__(self, x) -> Fraction:
        return self.evaluate(x)

    def slope_at(self, x) -> Fraction:
        """Slope of the (a.e.) derivative at x; at a breakpoint, the
        right-hand slope."""
        xs = [n[0] for n in self.nodes]
        return Fraction(*_slope_pairs(self.nodes)[bisect_right(xs, check_exact(x, "x"))])

    # -- group structure -------------------------------------------------

    def invert(self) -> "PLHomeo":
        # Swapping the coordinates inverts every slope, so the same nodes
        # stay breakpoints; a translation (0, c) becomes (0, -c).
        nodes = self.nodes
        if len(nodes) == 1:
            return PLHomeo._canonical(((nodes[0][0], -nodes[0][1]),))
        return PLHomeo._canonical(tuple((y, x) for x, y in nodes))

    def compose(self, other: "PLHomeo") -> "PLHomeo":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        f, g = self.nodes, other.nodes
        fx, fy = zip(*f)
        gx, gy = zip(*g)
        # A canonical map with one node is the translation (0, c); composing
        # with it shifts the other map's nodes and keeps every slope.
        if len(g) == 1:
            if len(f) == 1:
                return PLHomeo._canonical(((gx[0], *_shifted(fy, gy[0])),))
            return PLHomeo._canonical(tuple(zip(_shifted(fx, gy[0], -1), fy)))
        if len(f) == 1:
            return PLHomeo._canonical(tuple(zip(gx, _shifted(gy, fy[0]))))
        # f o g can bend only at g's nodes, where it takes the values f(gy),
        # and at the preimages under g of f's nodes, where it takes fy. Both
        # lists increase, so one merge orders them, and on a shared x keeps
        # g's node; f o g increases, so the merged nodes need no validation.
        gv = evaluate_sorted(fx, fy, gy)
        nodes = [
            (x, gv[i - 1] if from_g else fy[j - 1])
            for x, i, j, from_g in merge_sorted(gx, evaluate_sorted(gy, gx, fx))
        ]
        return PLHomeo._canonical(_drop_collinear(nodes, _slope_pairs(nodes)))

    def conjugate_by_homothety(self, alpha) -> "PLHomeo":
        """phi_alpha^{-1} o f o phi_alpha with phi_alpha(x) = alpha*x.

        Preserves the Lipschitz constant and divides the displacement by
        alpha; alpha must be positive to keep orientation."""
        # the nodes may be ints, which alpha must divide exactly
        alpha = Fraction(check_exact(alpha, "alpha"))
        if alpha <= 0:
            raise DomainError(f"homothety ratio must be positive, got {alpha}")
        # Scaling both coordinates keeps every slope, so the nodes stay
        # canonical.
        return PLHomeo._canonical(tuple((x / alpha, y / alpha) for x, y in self.nodes))

    # -- metric data -------------------------------------------------

    def lip_constant(self) -> Fraction:
        """max over a.e. slopes of f and f^{-1}, the tails' included."""
        # the largest and the smallest slope as unreduced pairs; only the
        # winner is normalised
        pairs = _slope_pairs(self.nodes)
        hi = lo = pairs[0]
        for num, den in pairs:
            if num * hi[1] > hi[0] * den:
                hi = (num, den)
            if num * lo[1] < lo[0] * den:
                lo = (num, den)
        if lo[1] * hi[1] > hi[0] * lo[0]:  # 1 / lo > hi; slopes are positive
            hi = (lo[1], lo[0])
        return Fraction(*hi)

    def displacement(self) -> Fraction:
        """sup |f(x) - x|; attained at a node or on a tail."""
        # each |y - x| as an unreduced pair; only the largest is normalised
        top = (0, 1)
        for x, y in self.nodes:
            (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
            num, den = abs(c * b - a * d), b * d
            if num * top[1] > top[0] * den:
                top = (num, den)
        return Fraction(*top)

    def fixed_set(self) -> IntervalUnion:
        """Exact solution set of f(x) = x as a union of closed intervals.

        One walk over the nodes from left to right meets the components in
        order, so they come out canonical: a zero offset f(x) - x at a node
        ends the last component, a piece on the diagonal extends it, and a
        root inside a piece is a point of its own."""
        parts = []
        # the previous node's x = a/b and offset y - x = u/v, as unreduced
        # ints; u is None at the first node
        a = b = u = v = None
        for x, y in self.nodes:
            e, f = x.numerator, x.denominator
            s, t = y.numerator * f - e * y.denominator, f * y.denominator
            if s == 0:
                if u is None:  # the left tail is fixed pointwise
                    parts.append((None, x))
                elif u == 0:  # the piece that ends here is on the diagonal
                    parts[-1] = (parts[-1][0], x)
                else:
                    parts.append((x, x))
            elif u and (u < 0) != (s < 0):
                # the offset is linear in x, so it vanishes at (x1 d0 -
                # x0 d1) / (d0 - d1) with x0 = a/b, d0 = u/v, x1 = e/f and
                # d1 = s/t
                root = Fraction(e * b * u * t - a * f * s * v, b * f * (u * t - s * v))
                parts.append((root, root))
            a, b, u, v = e, f, s, t
        if u == 0:  # the right tail is fixed pointwise
            parts[-1] = (parts[-1][0], None)
        return IntervalUnion(tuple(parts))

    # -- serialization -------------------------------------------------

    @staticmethod
    def from_obj(obj, path: str = "plhomeo") -> "PLHomeo":
        if not isinstance(obj, dict) or "nodes" not in obj:
            raise SchemaError("expected an object with a 'nodes' field", path)
        raw = obj["nodes"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("'nodes' must be a nonempty list", f"{path}.nodes")
        nodes = []
        for i, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError("node must be an [x, y] pair", f"{path}.nodes[{i}]")
            x = parse_rational(pair[0], f"{path}.nodes[{i}][0]")
            y = parse_rational(pair[1], f"{path}.nodes[{i}][1]")
            nodes.append((x, y))
        try:
            return PLHomeo(tuple(nodes))
        except DomainError as exc:
            raise SchemaError(str(exc), f"{path}.nodes") from exc
