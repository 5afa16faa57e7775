"""Exact piecewise-affine self-maps of [0,1].

A ``PwaMap`` is an ordered node list (x_i, y_i) with rational coordinates;
the map is affine between consecutive x-values.  Nodes are kept canonical:
x strictly increasing from 0 to 1, all values inside [0,1], and no three
consecutive collinear nodes (normalization drops redundant middles), so two
maps are equal as functions iff their node tuples are equal.

Everything here is exact; no operation touches floating point.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceError, SerializationError
from .rational import body_lines, format_rational, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_NODE_BUDGET = 10**6


# === the map type ===========================================================

@dataclass(frozen=True)
class PwaMap:
    """Continuous piecewise-affine map [0,1] -> [0,1] in canonical node form."""

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    @staticmethod
    def from_nodes(nodes: list[tuple[Fraction, Fraction]]) -> "PwaMap":
        """Validate a node list and normalize away collinear middles."""
        if not nodes:
            raise DomainError("a PwaMap needs at least one node")
        xs = [Fraction(x) for x, _ in nodes]
        ys = [Fraction(y) for _, y in nodes]
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise DomainError(f"node x-values must strictly increase: {a} then {b}")
        if xs[0] != ZERO or xs[-1] != ONE:
            raise DomainError(f"nodes must span [0,1], got [{xs[0]}, {xs[-1]}]")
        for y in ys:
            if not ZERO <= y <= ONE:
                raise DomainError(f"node value {y} outside [0,1] (self-map contract)")
        # drop middles of collinear triples: (y1-y0)(x2-x1) == (y2-y1)(x1-x0)
        kept_x: list[Fraction] = [xs[0]]
        kept_y: list[Fraction] = [ys[0]]
        for x, y in zip(xs[1:], ys[1:]):
            while len(kept_x) >= 2:
                x0, x1 = kept_x[-2], kept_x[-1]
                y0, y1 = kept_y[-2], kept_y[-1]
                if (y1 - y0) * (x - x1) == (y - y1) * (x1 - x0):
                    kept_x.pop()
                    kept_y.pop()
                else:
                    break
            kept_x.append(x)
            kept_y.append(y)
        return PwaMap(tuple(kept_x), tuple(kept_y))

    def __call__(self, x: Fraction) -> Fraction:
        return eval_map(self, x)

    @property
    def node_count(self) -> int:
        return len(self.xs)

    def nodes(self) -> list[tuple[Fraction, Fraction]]:
        return list(zip(self.xs, self.ys))

    def max_abs_slope(self) -> Fraction:
        """Lipschitz constant: the largest |slope| over all segments."""
        best = ZERO
        for i in range(len(self.xs) - 1):
            s = abs((self.ys[i + 1] - self.ys[i]) / (self.xs[i + 1] - self.xs[i]))
            if s > best:
                best = s
        return best


def identity_map() -> PwaMap:
    return PwaMap((ZERO, ONE), (ZERO, ONE))


def constant_map(c: Fraction) -> PwaMap:
    c = Fraction(c)
    if not ZERO <= c <= ONE:
        raise DomainError(f"constant value {c} outside [0,1]")
    return PwaMap((ZERO, ONE), (c, c))


def tent_map() -> PwaMap:
    return PwaMap((ZERO, Fraction(1, 2), ONE), (ZERO, ONE, ZERO))


# === operations =============================================================

def eval_map(m: PwaMap, x: Fraction) -> Fraction:
    """Exact value of the map at x (linear interpolation between nodes)."""
    x = Fraction(x)
    if not ZERO <= x <= ONE:
        raise DomainError(f"eval argument {x} outside [0,1]")
    if len(m.xs) == 1:
        return m.ys[0]
    i = bisect_right(m.xs, x) - 1
    if i == len(m.xs) - 1:       # x == 1
        return m.ys[-1]
    x0, x1 = m.xs[i], m.xs[i + 1]
    y0, y1 = m.ys[i], m.ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def eval_sorted(m: PwaMap, xs: list[Fraction]) -> list[Fraction]:
    """Exact values at ascending points of [0,1], equal to ``eval_map`` at
    each: one pointer walks the nodes once, so the cost is O(points + nodes)."""
    out: list[Fraction] = []
    last = len(m.xs) - 1
    i = 0
    prev = ZERO
    for x in xs:
        x = Fraction(x)
        if not ZERO <= x <= ONE:
            raise DomainError(f"eval argument {x} outside [0,1]")
        if x < prev:
            raise DomainError(f"eval points must ascend: {prev} then {x}")
        prev = x
        while i < last and m.xs[i + 1] <= x:
            i += 1
        if i == last or m.xs[i] == x:
            out.append(m.ys[i])
        else:
            x0, x1 = m.xs[i], m.xs[i + 1]
            y0, y1 = m.ys[i], m.ys[i + 1]
            out.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return out


def compose(outer: PwaMap, inner: PwaMap) -> PwaMap:
    """Exact outer∘inner.

    Breakpoints of the result: inner's own breakpoints plus every inner-
    preimage of an outer breakpoint (solved per inner segment).  Between two
    consecutive such points inner is affine with image inside one affine
    piece of outer, so the result is affine there.
    """
    breaks = set(inner.xs)
    for i in range(len(inner.xs) - 1):
        x0, x1 = inner.xs[i], inner.xs[i + 1]
        y0, y1 = inner.ys[i], inner.ys[i + 1]
        if y0 == y1:
            continue
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        for j in range(bisect_right(outer.xs, lo), bisect_left(outer.xs, hi)):
            b = outer.xs[j]     # strictly inside (lo, hi)
            breaks.add(x0 + (b - y0) * (x1 - x0) / (y1 - y0))
    xs = sorted(breaks)
    inner_ys = eval_sorted(inner, xs)
    return PwaMap.from_nodes([(x, eval_map(outer, y)) for x, y in zip(xs, inner_ys)])


def iterate(m: PwaMap, n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> PwaMap:
    """Exact n-fold composition m∘…∘m (n=0 gives the identity).

    Node growth is geometric for expanding maps; the budget caps it.  Deep
    orbits of single points should use orbit evaluation (module separation),
    which never materializes the iterated map.
    """
    if n < 0:
        raise DomainError(f"iterate needs n >= 0, got {n}")
    result = identity_map()
    for step in range(1, n + 1):
        result = compose(m, result)
        if result.node_count > node_budget:
            raise ResourceError(
                f"iterate({step}) needs {result.node_count} nodes,"
                f" over the budget of {node_budget} (requested n={n})"
            )
    return result


def sup_distance(a: PwaMap, b: PwaMap) -> Fraction:
    """Exact C0 distance max_x |a(x) − b(x)|.

    The difference is piecewise affine with breakpoints in the merged node
    set, so the max is attained at one of those points.
    """
    merged = sorted(set(a.xs) | set(b.xs))
    return max(abs(u - v) for u, v in zip(eval_sorted(a, merged), eval_sorted(b, merged)))


def fixed_points(m: PwaMap) -> list[tuple[Fraction, Fraction]]:
    """All solutions of m(x) = x, as maximal closed intervals [lo, hi].

    Degenerate intervals (lo == hi) are isolated fixed points.  Nonempty for
    every self-map of [0,1] (intermediate value theorem on m(x) − x).
    """
    raw: list[tuple[Fraction, Fraction]] = []
    if len(m.xs) == 1:
        return [(m.ys[0], m.ys[0])]
    for i in range(len(m.xs) - 1):
        x0, x1 = m.xs[i], m.xs[i + 1]
        g0, g1 = m.ys[i] - x0, m.ys[i + 1] - x1
        if g0 == 0 and g1 == 0:
            raw.append((x0, x1))
        elif g0 == 0:
            raw.append((x0, x0))
        elif g1 == 0:
            raw.append((x1, x1))
        elif (g0 < 0) != (g1 < 0):
            x = x0 + (x1 - x0) * g0 / (g0 - g1)
            raw.append((x, x))
    raw.sort()
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


# === serialization ==========================================================

PWA_HEADER = "pwa-map v1"


def dump_pwa(m: PwaMap) -> str:
    """Text form: header line, then one exact 'p/q r/s' node per line."""
    lines = [PWA_HEADER]
    lines += [f"{format_rational(x)} {format_rational(y)}" for x, y in m.nodes()]
    return "\n".join(lines) + "\n"


def load_pwa(text: str) -> PwaMap:
    nodes = []
    for ln in body_lines(text, PWA_HEADER):
        parts = ln.split()
        if len(parts) != 2:
            raise SerializationError(f"bad node line: {ln!r}")
        nodes.append((parse_rational(parts[0]), parse_rational(parts[1])))
    return PwaMap.from_nodes(nodes)
