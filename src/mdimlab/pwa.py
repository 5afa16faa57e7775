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
The table's format stays in this module: ``_locate`` is the one search of
the node keys, which evaluation, composition, the distances and the integer
orbit steps (``_integer_steps``, read by module separation) all go through.

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
    on the piece through x = p/q, each located by ``_locate`` from the last
    point's place.  With ``pairs`` each value is that integer (numerator,
    denominator) pair, unreduced off the nodes, for callers that compare by
    cross-multiplication; else a Fraction."""
    pieces = m._table[2]
    out: list = []
    lo = 0
    pp, pq = 0, 1
    for x in xs:
        x = x if type(x) is Fraction else Fraction(x)
        p, q = x.as_integer_ratio()
        if not 0 <= p <= q:
            raise DomainError(f"eval argument {x} outside [0,1]")
        if p * pq < pp * q:
            raise DomainError(f"eval points must ascend: {Fraction(pp, pq)} then {x}")
        pp, pq = p, q
        lo, hi = _locate(m, p, q, lo)
        if lo < hi:                           # x is node lo (x == 1 is the last one)
            out.append(m.ys[lo].as_integer_ratio() if pairs else m.ys[lo])
        else:
            a, b, d = pieces[lo - 1]
            out.append((a * p + b * q, d * q) if pairs else Fraction(a * p + b * q, d * q))
    return out


def _locate(m: PwaMap, p: int, q: int, start: int = 0, end: int | None = None) -> tuple[int, int]:
    """(lo, hi), the numbers of nodes below p/q and at or below it, as
    ``bisect_left`` and ``bisect_right`` of m.xs with the bounds start and
    end (end >= 1): found by p/q's node key, with one exact compare when it
    shares its key with a node.  No Fraction is made."""
    shift, keys, _ = m._table
    k = (p << shift) // q
    lo = hi = bisect_right(keys, k, start, end)
    if keys[lo - 1] == k:                     # p/q shares its key with node lo − 1
        n, d = m.xs[lo - 1].as_integer_ratio()
        lo, hi = lo - (p * d <= n * q), hi - (p * d < n * q)
    return lo, hi


def _integer_steps(m: PwaMap) -> tuple[int, list[tuple[int, int]]]:
    """The integer form of one step of the map: M, the lcm of the pieces'
    d_i in the table, and each piece's step (a_i·M/d_i, b_i·M/d_i), which
    sends v/d to (a_i·v + b_i·d)/(d·M) exactly."""
    pieces = m._table[2]
    big_m = math.lcm(*(d for _, _, d in pieces))
    return big_m, [(a * (big_m // d), b * (big_m // d)) for a, b, d in pieces]


def compose(outer: PwaMap, inner: PwaMap) -> PwaMap:
    """Exact outer∘inner by two ordered walks over inner's nodes.

    The first (``_place``) places each inner value y among outer's nodes by
    ``_locate``; the second values y on outer's node or piece there.  Before
    each inner node come the preimages x0 + (u − y0)(x1 − x0)/(y1 − y0) of
    the outer nodes u strictly between the values y0, y1 at the ends of the
    segment that ends there, in x order, each one integer fraction valued
    by its node.  Between two consecutive points inner is affine with image
    inside one affine piece of outer, so the result is affine there;
    ``from_nodes`` rechecks the x order.

    Every preimage is a node of the canonical result, so the result has at
    least ``_preimage_count`` + 2 nodes.  A preimage x of u lies strictly
    inside an inner segment, so it is never an inner node, 0 or 1, and
    near x inner is affine with one slope s.  s ≠ 0, since u lies strictly
    between the segment's end values.  u lies strictly inside (0, 1), so it
    is an interior node of the canonical outer, whose slopes a_l, a_r on
    either side of u differ (else u would be a collinear middle).  Near x
    the result has slopes s·a_l and s·a_r, one on each side (in that order
    for s > 0, swapped for s < 0), and these differ, so the result is not
    affine across x and normalization keeps it.  Distinct u give distinct
    x on one segment, and segments share no interior point.
    """
    return _compose_placed(outer, inner, _place(outer, inner))


def _place(outer: PwaMap, inner: PwaMap) -> list[tuple[int, int, int, int]]:
    """Per inner node, its value y = s/t as (s, t, lo, hi), lo and hi as
    ``_locate`` gives them among outer's nodes."""
    return [(s, t, *_locate(outer, s, t)) for s, t in map(Fraction.as_integer_ratio, inner.ys)]


def _preimage_count(places: list[tuple[int, int, int, int]]) -> int:
    """The number of preimage nodes ``compose`` inserts: on each inner
    segment, the outer nodes strictly between its end values, hi0..lo − 1
    going up and hi..lo0 − 1 going down (none when flat)."""
    return sum(max(lo - hi0, lo0 - hi, 0)
               for (_, _, lo0, hi0), (_, _, lo, hi) in zip(places, places[1:]))


def _compose_placed(outer: PwaMap, inner: PwaMap,
                    places: list[tuple[int, int, int, int]]) -> PwaMap:
    """outer∘inner from inner's values as placed by ``_place``."""
    pieces = outer._table[2]
    oxs, oys = outer.xs, outer.ys
    nodes: list[tuple[Fraction, Fraction]] = []
    for x, (s1, t1, lo, hi) in zip(inner.xs, places):
        p1, q1 = x.as_integer_ratio()
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

    Right-to-left binary powering: the power m^(2^j) is squared ⌊log₂ n⌋
    times, and at each further set bit of n it is composed, as the outer
    map, onto the result so far.  Composition is associative and a
    canonical node tuple is unique, so the result is the step loop's
    (n steps of ``compose(m, ·)``).

    The budget bounds every map it builds: a composition is refused before
    any of its nodes is made when its preimage count (see ``compose``)
    already puts the result over the budget, and a built map is refused
    when its canonical node count is.  Every map built is a power m^k with
    k ≤ n, each of which the step loop built and checked, so this refuses
    only where the step loop refused.  Node growth is geometric for
    expanding maps, and one squaring can square the node count; the budget
    caps it.  Deep orbits of single points should use orbit evaluation
    (module separation), which never materializes the iterated map.
    """
    if n < 0:
        raise DomainError(f"iterate needs n >= 0, got {n}")
    if n == 0:
        return identity_map()

    def check(k: int, count: int, bound: str = "") -> None:
        if count > node_budget:
            raise ResourceError(f"iterate({k}) needs {bound}{count} nodes,"
                                f" over the budget of {node_budget} (requested n={n})")

    def composed(outer: PwaMap, inner: PwaMap, k: int) -> PwaMap:
        places = _place(outer, inner)
        check(k, _preimage_count(places) + 2, "at least ")
        power = _compose_placed(outer, inner, places)
        check(k, power.node_count)
        return power

    power = PwaMap.from_nodes(m.nodes())                 # m^(2^j)
    check(1, power.node_count)
    result, done = None, 0                               # m^done, done = n mod 2^j
    for j in range(n.bit_length()):
        if j:
            power = composed(power, power, 1 << j)
        if n >> j & 1:
            done += 1 << j
            result = power if result is None else composed(power, result, done)
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
    """Exact C0 distance max_x |a(x) − b(x)|."""
    return _distance_on(a, b, ZERO, ONE)


def _distance_on(a: PwaMap, b: PwaMap, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact max |a(x) − b(x)| over [lo, hi] inside [0, 1].

    The difference is affine between consecutive points of {lo, hi} and the
    nodes of either map between them, so the max is attained at one of
    those points.  The differences are integer pairs compared by
    cross-multiplication; one Fraction is built.
    """
    (p, q), (r, s) = lo.as_integer_ratio(), hi.as_integer_ratio()
    xs = merge_nodes((lo, hi), *(m.xs[_locate(m, p, q)[1]:_locate(m, r, s)[0]] for m in (a, b)))
    best, best_d = 0, 1
    for (un, ud), (vn, vd) in zip(_values(a, xs, True), _values(b, xs, True)):
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
