"""Exact piecewise-affine self-maps of [0,1].

A ``PwaMap`` is an ordered node list (x_i, y_i) with rational coordinates;
the map is affine between consecutive x-values.  Nodes are kept canonical:
x strictly increasing from 0 to 1, all values inside [0,1], and no three
consecutive collinear nodes (normalization drops redundant middles), so two
maps are equal as functions iff their node tuples are equal.

Evaluation reads a private integer table, built on first use and never
compared, hashed or pickled: node keys floor(x_i·2^s), s = 2·(bits of the
largest x denominator) + 1, and per piece y = (a·x + b)/d, reduced.  No entry
uses an lcm over the map, so nodes need not share a small common denominator.

Everything here is exact; no operation touches floating point.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
        """Validate a node list and normalize away collinear middles.

        Every check runs on the integer (numerator, denominator) pairs by
        cross-multiplication, one node triple at a time; the kept nodes are
        the given Fraction objects.
        """
        if not nodes:
            raise DomainError("a PwaMap needs at least one node")
        xs = [x if type(x) is Fraction else Fraction(x) for x, _ in nodes]
        ys = [y if type(y) is Fraction else Fraction(y) for _, y in nodes]
        xr = [x.as_integer_ratio() for x in xs]
        yr = [y.as_integer_ratio() for y in ys]
        for a, b, (an, ad), (bn, bd) in zip(xs, xs[1:], xr, xr[1:]):
            if not an * bd < bn * ad:
                raise DomainError(f"node x-values must strictly increase: {a} then {b}")
        if xr[0][0] != 0 or xr[-1][0] != xr[-1][1]:
            raise DomainError(f"nodes must span [0,1], got [{xs[0]}, {xs[-1]}]")
        for y, (yn, yd) in zip(ys, yr):
            if not 0 <= yn <= yd:
                raise DomainError(f"node value {y} outside [0,1] (self-map contract)")
        # drop middles of collinear triples: (y1-y0)(x2-x1) == (y2-y1)(x1-x0),
        # multiplied through by all six denominators (xd1 and yd1 cancel)
        kept = [0]
        for k in range(1, len(xs)):
            x2, xd2 = xr[k]
            y2, yd2 = yr[k]
            while len(kept) >= 2:
                (x0, xd0), (x1, xd1) = xr[kept[-2]], xr[kept[-1]]
                (y0, yd0), (y1, yd1) = yr[kept[-2]], yr[kept[-1]]
                if ((y1 * yd0 - y0 * yd1) * (x2 * xd1 - x1 * xd2) * yd2 * xd0
                        == (y2 * yd1 - y1 * yd2) * (x1 * xd0 - x0 * xd1) * yd0 * xd2):
                    kept.pop()
                else:
                    break
            kept.append(k)
        return PwaMap(tuple(xs[k] for k in kept), tuple(ys[k] for k in kept))

    @cached_property
    def _table(self) -> tuple[int, list[int], list[tuple[int, int, int]]]:
        xr = [x.as_integer_ratio() for x in self.xs]
        yr = [y.as_integer_ratio() for y in self.ys]
        shift, keys = _node_keys(xr)
        pieces = []
        for (n0, m0), (n1, m1), (u0, v0), (u1, v1) in zip(xr, xr[1:], yr, yr[1:]):
            dx, dy = n1 * m0 - n0 * m1, u1 * v0 - u0 * v1
            a, b, d = dy * m0 * m1, u0 * v1 * dx - dy * m1 * n0, v0 * v1 * dx
            g = math.gcd(a, b, d)
            pieces.append((a // g, b // g, d // g))
        return shift, keys, pieces

    def __getstate__(self) -> dict:
        return {"xs": self.xs, "ys": self.ys}     # the node table is derived

    def __call__(self, x: Fraction) -> Fraction:
        return eval_map(self, x)

    @property
    def node_count(self) -> int:
        return len(self.xs)

    def nodes(self) -> list[tuple[Fraction, Fraction]]:
        return list(zip(self.xs, self.ys))


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
    return _values(m, (x,))[0]


def eval_sorted(m: PwaMap, xs: list[Fraction]) -> list[Fraction]:
    """Exact values at ascending points of [0,1], equal to ``eval_map`` at each."""
    return _values(m, xs)


def _values(m: PwaMap, xs: Sequence[Fraction], pairs: bool = False) -> list:
    """Values at ascending points: a node's own value, else (a·p + b·q)/(d·q)
    on the piece through x = p/q.  With ``pairs`` each value is that integer
    (numerator, denominator) pair, unreduced off the nodes, for callers that
    compare by cross-multiplication; else a Fraction.  A key shared with
    node i needs one exact compare."""
    shift, keys, pieces = m._table
    out: list = []
    i = 0
    pp, pq = 0, 1
    for x in xs:
        x = x if type(x) is Fraction else Fraction(x)
        p, q = x.as_integer_ratio()
        if not 0 <= p <= q:
            raise DomainError(f"eval argument {x} outside [0,1]")
        if p * pq < pp * q:
            raise DomainError(f"eval points must ascend: {Fraction(pp, pq)} then {x}")
        pp, pq = p, q
        k = (p << shift) // q
        i = bisect_right(keys, k, i) - 1
        if k == keys[i]:
            n, d0 = m.xs[i].as_integer_ratio()
            if p == n and q == d0:            # x is a node (x == 1 is the last one)
                out.append(m.ys[i].as_integer_ratio() if pairs else m.ys[i])
                continue
            i -= p * d0 < n * q               # x lies just below node i
        a, b, d = pieces[i]
        out.append((a * p + b * q, d * q) if pairs else Fraction(a * p + b * q, d * q))
    return out


def compose(outer: PwaMap, inner: PwaMap) -> PwaMap:
    """Exact outer∘inner by one ordered walk over inner's nodes.

    Each inner value y is placed among outer's nodes by its node key (one
    exact compare on a shared key) and valued on outer's node or piece
    there.  Before each inner node come the preimages x0 + (u − y0)(x1 −
    x0)/(y1 − y0) of the outer nodes u strictly between the values y0, y1
    at the ends of the segment that ends there, in x order, each one integer
    fraction valued by its node.  Between two consecutive points inner is
    affine with image inside one affine piece of outer, so the result is
    affine there; ``from_nodes`` rechecks the x order.
    """
    shift, keys, pieces = outer._table
    oxs, oys = outer.xs, outer.ys
    nodes: list[tuple[Fraction, Fraction]] = []
    for x, y in zip(inner.xs, inner.ys):
        (p1, q1), (s1, t1) = x.as_integer_ratio(), y.as_integer_ratio()
        k = (s1 << shift) // t1
        lo = hi = bisect_right(keys, k)             # outer nodes < y, <= y
        if keys[lo - 1] == k:                       # y shares its key with node lo − 1
            n, d = oxs[lo - 1].as_integer_ratio()
            lo, hi = lo - (s1 * d <= n * t1), hi - (s1 * d < n * t1)
        if nodes:
            dy = s1 * t0 - s0 * t1
            # the outer nodes strictly between y0 and y1, in x order (none when flat)
            js = range(hi0, lo) if dy > 0 else range(lo0 - 1, hi - 1, -1)
            # at u = un/ud, x = (f·ud + (un·t0 − s0·ud)·c)/(ud·e)
            c, e, f = (p1 * q0 - p0 * q1) * t1, q0 * q1 * dy, p0 * q1 * dy
            for j in js:
                un, ud = oxs[j].as_integer_ratio()
                nodes.append((Fraction(f * ud + (un * t0 - s0 * ud) * c, ud * e), oys[j]))
        if lo < hi:
            nodes.append((x, oys[lo]))
        else:
            a, b, d = pieces[lo - 1]
            nodes.append((x, Fraction(a * s1 + b * t1, d * t1)))
        p0, q0, s0, t0, lo0, hi0 = p1, q1, s1, t1, lo, hi
    return PwaMap.from_nodes(nodes)


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


def merge_nodes(*seqs: Sequence[Fraction]) -> list[Fraction]:
    """The ascending union of ascending point lists, equal to
    ``sorted(set().union(*seqs))``, ordered and deduplicated by the integer
    keys of ``_node_keys``, so no two points are compared."""
    points = [x for seq in seqs for x in seq]
    _, keys = _node_keys([x.as_integer_ratio() for x in points])
    by_key = dict(zip(keys, points))
    return [by_key[k] for k in sorted(by_key)]


def _node_keys(ratios: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """The shift s = 2·(bits of the largest denominator D) + 1 and the keys
    floor(x·2^s) of the points x = n/d given as (n, d).  Two distinct points
    differ by at least 1/D² > 2/2^s, so their keys differ and keep their
    order; a point that is not in the list may share a key with one that is."""
    shift = 2 * max(d for _, d in ratios).bit_length() + 1
    return shift, [(n << shift) // d for n, d in ratios]


def sup_distance(a: PwaMap, b: PwaMap) -> Fraction:
    """Exact C0 distance max_x |a(x) − b(x)|.

    The difference is piecewise affine with breakpoints in the merged node
    set, so the max is attained at one of those points.  The differences are
    integer pairs compared by cross-multiplication; one Fraction is built.
    """
    merged = merge_nodes(a.xs, b.xs)
    best, best_d = 0, 1
    for (un, ud), (vn, vd) in zip(_values(a, merged, True), _values(b, merged, True)):
        n, d = abs(un * vd - vn * ud), ud * vd
        if n * best_d > best * d:
            best, best_d = n, d
    return Fraction(best, best_d)


def fixed_points(m: PwaMap) -> list[tuple[Fraction, Fraction]]:
    """All solutions of m(x) = x, as maximal closed intervals [lo, hi].

    Degenerate intervals (lo == hi) are isolated fixed points.  Nonempty for
    every self-map of [0,1] (intermediate value theorem on m(x) − x).
    """
    raw: list[tuple[Fraction, Fraction]] = []
    for x0, x1, (a, b, d) in zip(m.xs, m.xs[1:], m._table[2]):
        if a != d:                      # m(x) − x = ((a − d)·x + b)/d has one root
            x = Fraction(-b, a - d)
            if x0 <= x <= x1:
                raw.append((x, x))
        elif b == 0:                    # the piece is the identity
            raw.append((x0, x1))
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
