"""Exact piecewise-affine map algebra: evaluation, composition, iteration,
uniform distance, fixed points, canonical form, and text round-trips."""
from __future__ import annotations

import copy
import math
import pickle
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    iterate_by_steps,
    near_nodes,
    prime_denominator_pwa,
    random_pwa,
    value_at,
)
from mdimlab import (
    DomainError,
    PwaMap,
    ResourceError,
    SerializationError,
    compose,
    constant_map,
    dump_pwa,
    eval_map,
    eval_sorted,
    fixed_points,
    identity_map,
    iterate,
    load_pwa,
    sup_distance,
    tent_map,
)
from mdimlab.pwa import _locate, _place, _preimage_count, merge_nodes

F = Fraction

TENT_SQUARED_NODES = [
    (F(0), F(0)), (F(1, 4), F(1)), (F(1, 2), F(0)), (F(3, 4), F(1)), (F(1), F(0)),
]

seeds = st.integers(0, 10**9)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


# === evaluation ===============================================================

def test_eval_identity(identity):
    assert eval_map(identity, F(3, 10)) == F(3, 10)


def test_eval_tent_interpolates(tent):
    assert eval_map(tent, F(1, 4)) == F(1, 2)
    assert eval_map(tent, F(1, 2)) == F(1)
    assert eval_map(tent, F(9, 10)) == F(1, 5)


def test_eval_staircase_bottom_endpoint(half_model):
    # the first full branch starts at the bottom core value, so a_1 maps to itself
    assert eval_map(half_model.map, F(1, 2)) == F(1, 2)


def test_eval_rejects_points_outside_the_interval(tent):
    with pytest.raises(DomainError):
        eval_map(tent, F(-1, 10))
    with pytest.raises(DomainError):
        eval_map(tent, F(11, 10))


# === composition and iteration ===============================================

def test_compose_identity_absorbs(identity, tent):
    assert compose(identity, tent) == tent
    assert compose(tent, identity) == tent


def test_compose_tent_with_itself(tent):
    assert compose(tent, tent).nodes() == TENT_SQUARED_NODES


def test_compose_constant_absorbs(tent):
    assert compose(constant_map(F(1, 2)), tent) == constant_map(F(1, 2))


def reference_compose(outer: PwaMap, inner: PwaMap) -> list[tuple[Fraction, Fraction]]:
    """outer∘inner by collecting every breakpoint in a set, sorting it and
    evaluating both maps pointwise by the reference interpolation."""
    breaks = set(inner.xs)
    for (x0, y0), (x1, y1) in zip(inner.nodes(), inner.nodes()[1:]):
        lo, hi = sorted((y0, y1))
        for b in outer.xs:
            if lo < b < hi:
                breaks.add(x0 + (b - y0) * (x1 - x0) / (y1 - y0))
    return reference_normalise(
        [(x, value_at(outer, value_at(inner, x))) for x in sorted(breaks)]
    )


def mixed_pwa(rng: random.Random, interior: int, values=None) -> PwaMap:
    """A random map whose nodes sit on the 1/7, 1/24 and 1/97 grids at once;
    its values are drawn from ``values`` when given."""
    def grid_point() -> Fraction:
        d = rng.choice((7, 24, 97))
        return F(rng.randint(0, d), d)

    xs = sorted({F(0), F(1), *(grid_point() for _ in range(interior))})
    pick = (lambda: rng.choice(values)) if values else grid_point
    return PwaMap.from_nodes([(x, pick()) for x in xs])


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(0, 12), st.integers(0, 12), st.sampled_from(["free", "on-nodes", "flat"]))
def test_compose_matches_a_set_sort_evaluate_reference(seed, n_outer, n_inner, kind):
    rng = random.Random(seed)
    outer = mixed_pwa(rng, n_outer)
    if kind == "free":
        inner = mixed_pwa(rng, n_inner)
    elif kind == "on-nodes":               # inner values exactly on outer nodes
        inner = mixed_pwa(rng, n_inner, values=list(outer.xs))
    else:                                  # few values, so many flat segments
        inner = mixed_pwa(rng, n_inner, values=[F(1, 7), F(13, 24), F(1, 7)])
    assert compose(outer, inner).nodes() == reference_compose(outer, inner)


@pytest.mark.parametrize("inner_nodes", [
    [(F(0), F(1)), (F(1), F(0))],                                     # one decreasing sweep
    [(F(0), F(0)), (F(1, 3), F(1)), (F(1), F(0))],                    # up, then down
    [(F(0), F(95, 97)), (F(1, 2), F(1, 24)), (F(1), F(1, 24))],       # down, then flat
    [(F(0), F(3, 7)), (F(2, 7), F(6, 7)), (F(1, 2), F(1, 7)), (F(1), F(3, 7))],  # on nodes
])
def test_compose_crosses_many_outer_nodes_in_order(inner_nodes):
    outer = PwaMap.from_nodes([(F(j, 7), F(j % 2)) for j in range(8)])  # a 7-lap zigzag
    inner = PwaMap.from_nodes(inner_nodes)
    composed = compose(outer, inner)
    assert composed.nodes() == reference_compose(outer, inner)
    for j in range(98):
        x = F(j, 97)
        assert eval_map(composed, x) == eval_map(outer, eval_map(inner, x))


@pytest.mark.parametrize("seed", range(6))
def test_compose_matches_the_reference_on_prime_denominator_maps(seed):
    rng = random.Random(seed)
    outer = prime_denominator_pwa(rng, 9)
    inner = prime_denominator_pwa(rng, 7, first_prime=2003)
    assert compose(outer, inner).nodes() == reference_compose(outer, inner)
    assert compose(inner, outer).nodes() == reference_compose(inner, outer)


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans(), st.data())
def test_locate_is_bisect_on_the_nodes(seed, primes, data):
    # the nodes and the points 10^-12 either side of each, most of which share its key
    rng = random.Random(seed)
    m = prime_denominator_pwa(rng, rng.randint(2, 12)) if primes else random_pwa(rng)
    for x in [F(0), F(1), *near_nodes(m)]:
        p, q = x.as_integer_ratio()
        lo, hi = bisect_left(m.xs, x), bisect_right(m.xs, x)
        assert _locate(m, p, q) == (lo, hi)
        start = data.draw(st.integers(0, lo))
        end = data.draw(st.integers(max(start, 1), m.node_count))
        assert _locate(m, p, q, start, end) == (bisect_left(m.xs, x, start, end),
                                                 bisect_right(m.xs, x, start, end))


def node_key(m: PwaMap, x: Fraction) -> int:
    shift = m._table[0]
    return (x.numerator << shift) // x.denominator


@pytest.mark.parametrize("seed", range(6))
def test_compose_places_inner_values_on_and_next_to_outer_nodes(seed):
    rng = random.Random(seed)
    outer = prime_denominator_pwa(rng, 9)
    # every outer node and the points 10^-12 either side of it; inside (0, 1)
    # each of those shares its node's key, so only the exact compare places it
    values = near_nodes(outer)
    off = F(1, 10**12)
    assert all(node_key(outer, x + d) == node_key(outer, x)
               for x in outer.xs[1:-1] for d in (-off, off))
    rng.shuffle(values)
    inner = PwaMap.from_nodes([(F(i, len(values) - 1), v) for i, v in enumerate(values)])
    assert compose(outer, inner).nodes() == reference_compose(outer, inner)


@pytest.mark.parametrize("inner_nodes", [
    [(F(0), F(2, 5)), (F(1), F(2, 5))],                                      # constant
    [(F(0), F(1, 3)), (F(1, 4), F(1, 3)), (F(1, 2), F(4, 5)), (F(1), F(4, 5))],  # flat, up, flat
    [(F(0), F(1)), (F(1, 3), F(1)), (F(2, 3), F(0)), (F(1), F(0))],          # flat at both ends
])
def test_compose_with_constant_inner_pieces(inner_nodes):
    outer = prime_denominator_pwa(random.Random(3), 12)
    inner = PwaMap.from_nodes(inner_nodes)
    assert compose(outer, inner).nodes() == reference_compose(outer, inner)
    flat_on_node = PwaMap.from_nodes([(F(0), outer.xs[5]), (F(1), outer.xs[5])])
    assert compose(outer, flat_on_node) == constant_map(outer.ys[5])


@pytest.mark.parametrize("inner_nodes", [
    [(F(0), F(1)), (F(1), F(0))],
    [(F(0), F(1)), (F(1, 3), F(0)), (F(2, 3), F(1)), (F(1), F(0))],
    [(F(0), F(1)), (F(1, 2), F(0)), (F(1), F(1, 2))],
])
def test_compose_decreasing_pieces_cross_many_outer_nodes(inner_nodes):
    outer = prime_denominator_pwa(random.Random(9), 40)
    inner = PwaMap.from_nodes(inner_nodes)
    composed = compose(outer, inner)
    assert composed.nodes() == reference_compose(outer, inner)
    assert composed.node_count >= outer.node_count


def test_compose_matches_pointwise_on_a_grid(tent):
    composed = compose(tent, tent)
    for j in range(65):
        x = F(j, 64)
        assert eval_map(composed, x) == eval_map(tent, eval_map(tent, x))


def test_iterate_zero_gives_identity(tent):
    assert iterate(tent, 0) == identity_map()


@pytest.mark.parametrize("k", range(13))
def test_iterate_tent_is_the_sawtooth(tent, k):
    it = iterate(tent, k)
    assert it.xs == tuple(F(j, 2**k) for j in range(2**k + 1))
    assert it.ys == tuple(F(j % 2) for j in range(2**k + 1))


def test_iterate_two_equals_composition(tent):
    assert iterate(tent, 2) == compose(tent, tent)


def test_iterate_identity_stays_identity(identity):
    assert iterate(identity, 100) == identity


def test_iterate_rejects_negative_depth(tent):
    with pytest.raises(DomainError):
        iterate(tent, -1)


def test_iterate_budget_names_the_request(tent):
    with pytest.raises(ResourceError, match=r"requested n=25"):
        iterate(tent, 25, node_budget=100)


@st.composite
def flat_and_off_grid_maps(draw, max_interior: int = 6) -> PwaMap:
    """A random map on the 1/6, 1/97, 1/101 or 1/1009 grid whose pieces are
    often flat: each value after the first may repeat the one before."""
    d = draw(st.sampled_from([6, 97, 101, 1009]))
    interior = sorted(draw(st.lists(st.integers(1, d - 1), max_size=min(max_interior, d - 1),
                                    unique=True)))
    ys = [draw(st.integers(0, d))]
    for _ in range(len(interior) + 1):
        ys.append(draw(st.one_of(st.just(ys[-1]), st.integers(0, d))))
    xs = [0, *interior, d]
    return PwaMap.from_nodes([(F(x, d), F(y, d)) for x, y in zip(xs, ys)])


@settings(max_examples=120, deadline=None)
@given(flat_and_off_grid_maps(), flat_and_off_grid_maps())
def test_every_preimage_of_an_interior_outer_node_is_a_node_of_the_composition(outer, inner):
    # each x strictly inside an inner segment with inner(x) an interior outer
    # node u: on a flat segment inner(x) = u nowhere or everywhere, else at
    # one x, found here by solving the segment's line for u
    preimages = []
    for (x0, y0), (x1, y1) in zip(inner.nodes(), inner.nodes()[1:]):
        if y0 != y1:
            xs = (x0 + (u - y0) * (x1 - x0) / (y1 - y0) for u in outer.xs[1:-1])
            preimages += [x for x in xs if x0 < x < x1]
    composed = compose(outer, inner)
    assert set(preimages) <= set(composed.xs)
    assert composed.node_count >= len(preimages) + 2
    assert _preimage_count(_place(outer, inner)) == len(preimages)


def test_the_preimage_bound_is_met_exactly_by_a_trapezoid():
    # m∘m keeps no inner node but 0 and 1: its 6 nodes are the 4 preimages
    # of 1/6 and 1/2 plus the ends, so a budget of 5 is refused unbuilt
    m = PwaMap.from_nodes([(F(0), F(0)), (F(1, 6), F(0)), (F(1, 2), F(5, 6)),
                           (F(5, 6), F(5, 6)), (F(1), F(0))])
    assert iterate(m, 2, node_budget=6) == compose(m, m)
    assert compose(m, m).node_count == 6
    with pytest.raises(ResourceError, match=r"iterate\(2\) needs at least 6 nodes"):
        iterate(m, 2, node_budget=5)


PINNED_POWERS = PwaMap.from_nodes([(F(x, 101), F(y, 101)) for x, y in zip(
    (0, 21, 47, 49, 96, 98, 101), (92, 92, 44, 8, 18, 35, 20))])


@settings(max_examples=150, deadline=None)
@given(flat_and_off_grid_maps(), st.integers(0, 9), st.integers(10, 3000))
@example(PINNED_POWERS, 4, 10)
@example(PINNED_POWERS, 3, 10)
def test_iterate_agrees_with_the_step_loop_and_refuses_only_where_it_refuses(m, n, budget):
    try:
        reference = iterate_by_steps(m, n, budget)
    except ResourceError:
        reference = None
    try:
        powered = iterate(m, n, node_budget=budget)
    except ResourceError:
        assert reference is None
    else:
        assert powered.node_count <= budget
        assert reference is None or powered == reference


def test_iterate_accepts_a_power_whose_lower_power_the_step_loop_refused():
    m = PINNED_POWERS
    powers = [m]
    for _ in range(3):
        powers.append(compose(m, powers[-1]))
    assert [p.node_count for p in powers] == [7, 10, 11, 8]
    square = compose(m, m)
    fourth = iterate(m, 4, node_budget=10)
    assert fourth == compose(square, square) == powers[3]
    assert fourth.node_count == 8
    with pytest.raises(ResourceError, match=r"iterate\(3\) needs 11 nodes"):
        iterate_by_steps(m, 4, 10)
    with pytest.raises(ResourceError, match=r"iterate\(3\) needs 11 nodes"):
        iterate(m, 3, node_budget=10)


def test_iterate_refuses_from_the_preimage_count_before_building(monkeypatch):
    real = PwaMap.from_nodes
    sizes: list[int] = []

    def recording(nodes):
        sizes.append(len(nodes))
        return real(nodes)

    monkeypatch.setattr(PwaMap, "from_nodes", staticmethod(recording))
    with pytest.raises(ResourceError, match=r"needs at least \d+ nodes, over the budget of 1000"
                                             r" \(requested n=40\)"):
        iterate(tent_map(), 40, node_budget=1000)
    assert sizes and max(sizes) <= 1000


# === uniform distance =========================================================

def test_sup_distance_of_a_map_to_itself(tent):
    assert sup_distance(tent, tent) == 0


def test_sup_distance_identity_to_constant(identity):
    assert sup_distance(identity, constant_map(F(1, 2))) == F(1, 2)


def test_sup_distance_identity_to_tent(identity, tent):
    # |x - tent(x)| peaks at x = 1
    assert sup_distance(identity, tent) == F(1)


# === merging node lists =======================================================

@settings(max_examples=80, deadline=None)
@given(seeds, st.lists(st.tuples(st.integers(2, 10), st.sampled_from([2, 101, 1009, 10007])),
                       min_size=1, max_size=4))
def test_merge_nodes_is_the_sorted_union(seed, shapes):
    rng = random.Random(seed)
    # maps on their own primes, so each list brings its own largest denominator
    maps = [prime_denominator_pwa(rng, nodes, first) for nodes, first in shapes]
    seqs = [m.xs for m in maps] + [random_pwa(rng).xs]
    seqs.append(sorted(rng.sample(seqs[0], rng.randint(1, len(seqs[0])))))  # shared nodes
    seqs.append(near_nodes(maps[-1]))                                        # a hair off nodes
    lo = rng.choice(seqs[0])
    seqs += [(0, lo), (lo, 1)]                           # int ends, as a window check gets them
    merged = merge_nodes(*seqs)
    assert merged == sorted(set().union(*seqs))
    assert all(a < b for a, b in zip(merged, merged[1:]))


def test_merge_nodes_separates_farey_neighbours():
    # k/(2k+1) and (k+1)/(2k+3) differ by 1/((2k+1)(2k+3)), the least gap
    # their denominators allow
    big = 10**40
    pairs = [F(k, 2 * k + 1) for k in (big, big + 1)]
    assert merge_nodes([pairs[1], F(1, 2)], [pairs[0]]) == [*pairs, F(1, 2)]
    assert merge_nodes((0, 1), (F(0), F(1, 3), F(1))) == [0, F(1, 3), 1]


# === fixed points =============================================================

def test_fixed_points_identity(identity):
    assert fixed_points(identity) == [(F(0), F(1))]


def test_fixed_points_constant():
    assert fixed_points(constant_map(F(1, 2))) == [(F(1, 2), F(1, 2))]


def test_fixed_points_tent(tent):
    assert fixed_points(tent) == [(F(0), F(0)), (F(2, 3), F(2, 3))]


def test_fixed_points_nonempty_on_many_random_maps():
    rng = random.Random(20240817)
    for _ in range(1000):
        m = random_pwa(rng)
        intervals = fixed_points(m)
        assert intervals, f"no fixed point found for nodes {m.nodes()}"
        for lo, hi in intervals:
            assert eval_map(m, lo) == lo
            assert eval_map(m, hi) == hi
            mid = (lo + hi) / 2
            assert eval_map(m, mid) == mid


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(0, 12))
def test_fixed_points_and_slopes_match_the_node_segments(seed, interior):
    rng = random.Random(seed)
    m = PwaMap.from_nodes([(x, x if rng.random() < 0.4 else y)
                           for x, y in mixed_pwa(rng, interior).nodes()])
    segments = list(zip(m.nodes(), m.nodes()[1:]))
    # each piece of the integer table has its node segment's slope
    assert [F(a, d) for a, _, d in m._table[2]] == [(y1 - y0) / (x1 - x0)
                                                   for (x0, y0), (x1, y1) in segments]
    # m(x) - x vanishes on a segment iff it is zero at both ends or changes sign
    intervals = fixed_points(m)
    for (x0, y0), (x1, y1) in segments:
        g0, g1 = y0 - x0, y1 - x1
        if g0 == g1 == 0:
            assert any(lo <= x0 and x1 <= hi for lo, hi in intervals)
        elif g0 * g1 <= 0:
            x = x0 + (x1 - x0) * g0 / (g0 - g1)
            assert any(lo <= x <= hi for lo, hi in intervals)
    assert all(value_at(m, lo) == lo and value_at(m, hi) == hi for lo, hi in intervals)
    assert all(a[1] < b[0] for a, b in zip(intervals, intervals[1:]))


# === canonical form ===========================================================

def test_from_nodes_drops_collinear_middles():
    m = PwaMap.from_nodes([(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1))])
    assert m == identity_map()
    assert m.node_count == 2


def test_from_nodes_never_keeps_collinear_triples():
    rng = random.Random(7)
    for _ in range(200):
        m = random_pwa(rng)
        for i in range(m.node_count - 2):
            x0, x1, x2 = m.xs[i : i + 3]
            y0, y1, y2 = m.ys[i : i + 3]
            assert (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0)


def test_from_nodes_validation():
    with pytest.raises(DomainError):
        PwaMap.from_nodes([])
    with pytest.raises(DomainError):      # x not strictly increasing
        PwaMap.from_nodes([(F(0), F(0)), (F(0), F(1)), (F(1), F(0))])
    with pytest.raises(DomainError):      # does not span [0, 1]
        PwaMap.from_nodes([(F(0), F(0)), (F(1, 2), F(1))])
    with pytest.raises(DomainError):      # value escapes [0, 1]
        PwaMap.from_nodes([(F(0), F(0)), (F(1), F(3, 2))])


def reference_normalise(nodes) -> list[tuple[Fraction, Fraction]]:
    """Canonical nodes by Fraction arithmetic: drop every collinear middle."""
    kept: list[tuple[Fraction, Fraction]] = []
    for x, y in ((F(x), F(y)) for x, y in nodes):
        while len(kept) >= 2:
            (x0, y0), (x1, y1) = kept[-2], kept[-1]
            if (y1 - y0) * (x - x1) != (y - y1) * (x1 - x0):
                break
            kept.pop()
        kept.append((x, y))
    return kept


COPRIME_DENOMINATORS = (7, 11, 13, 24, 97, 101, 997)


@st.composite
def collinear_node_lists(draw):
    """Breakpoints over coprime denominators, each segment filled with a run
    of collinear nodes; ends and values 0 or 1 may be plain ints."""
    dens = st.sampled_from(COPRIME_DENOMINATORS)
    cuts = draw(st.lists(st.tuples(st.integers(1, 996), dens), max_size=5))
    xs = sorted({F(0), F(1), *(F(j % d, d) for j, d in cuts if j % d)})
    values = st.tuples(st.integers(0, 997), dens).map(lambda t: F(min(t[0], t[1]), t[1]))
    ys = [draw(values) for _ in xs]
    if draw(st.booleans()):               # a straight line: every breakpoint collinear
        ys = [ys[0] + (ys[-1] - ys[0]) * x for x in xs]
    nodes = [(xs[0], ys[0])]
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        for t in draw(st.lists(st.fractions(0, 1, max_denominator=101), max_size=30, unique=True)):
            if 0 < t < 1:
                nodes.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
        nodes.append((x1, y1))
    nodes.sort()
    return [(int(x) if x.denominator == 1 and draw(st.booleans()) else x,
             int(y) if y.denominator == 1 and draw(st.booleans()) else y) for x, y in nodes]


@settings(max_examples=80, deadline=None)
@given(collinear_node_lists())
def test_from_nodes_matches_a_fraction_reference(nodes):
    m = PwaMap.from_nodes(nodes)
    assert m.nodes() == reference_normalise(nodes)
    assert all(type(v) is Fraction for v in (*m.xs, *m.ys))


def test_from_nodes_collapses_a_long_collinear_run_over_coprime_denominators():
    nodes = [(F(j, 997), F(1, 3) + F(j, 2991)) for j in range(998)]
    nodes[500] = (F(500, 997), F(1, 2))   # one kink in the middle of the run
    m = PwaMap.from_nodes(nodes)
    assert m.nodes() == reference_normalise(nodes)
    assert m.xs == (F(0), F(499, 997), F(500, 997), F(501, 997), F(1))


@pytest.mark.parametrize("nodes,message", [
    ([(F(0), F(0)), (F(1, 3), F(1)), (F(2, 7), F(1)), (F(1), F(0))],
     "node x-values must strictly increase: 1/3 then 2/7"),
    ([(0, 0), (0, 1), (1, 0)], "node x-values must strictly increase: 0 then 0"),
    ([(F(0), F(0)), (F(1, 2), F(1))], "nodes must span [0,1], got [0, 1/2]"),
    ([(F(1, 97), F(0)), (F(1), F(1))], "nodes must span [0,1], got [1/97, 1]"),
    ([(F(0), F(0)), (F(1), F(3, 2))], "node value 3/2 outside [0,1] (self-map contract)"),
    ([(F(0), F(-1, 7)), (F(1), F(1))], "node value -1/7 outside [0,1] (self-map contract)"),
])
def test_from_nodes_validation_messages(nodes, message):
    with pytest.raises(DomainError) as exc:
        PwaMap.from_nodes(nodes)
    assert str(exc.value) == message


@pytest.mark.parametrize("c", [F(-1, 3), F(4, 3)])
def test_constant_map_refuses_a_value_off_the_unit_interval(c):
    with pytest.raises(DomainError) as exc:
        constant_map(c)
    assert str(exc.value) == f"constant value {c} outside [0,1]"


# === algebraic properties =====================================================

@settings(max_examples=60, deadline=None)
@given(seeds, seeds, unit_fractions)
def test_composition_is_exact_pointwise(seed_f, seed_g, x):
    f = random_pwa(random.Random(seed_f))
    g = random_pwa(random.Random(seed_g))
    assert eval_map(compose(f, g), x) == eval_map(f, eval_map(g, x))


@settings(max_examples=60, deadline=None)
@given(seeds, unit_fractions, unit_fractions)
def test_lipschitz_bound_from_max_slope(seed, x, y):
    f = random_pwa(random.Random(seed))
    nodes = f.nodes()
    lip = max(abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(nodes, nodes[1:]))
    assert abs(eval_map(f, x) - eval_map(f, y)) <= lip * abs(x - y)


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, seeds)
def test_sup_distance_is_a_metric(seed_a, seed_b, seed_c):
    a = random_pwa(random.Random(seed_a))
    b = random_pwa(random.Random(seed_b))
    c = random_pwa(random.Random(seed_c))
    assert sup_distance(a, b) == sup_distance(b, a)
    assert (sup_distance(a, b) == 0) == (a == b)   # canonical form: equal as functions
    assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.lists(st.fractions(min_value=0, max_value=1, max_denominator=48)))
def test_eval_sorted_matches_pointwise_evaluation(seed, extra):
    m = random_pwa(random.Random(seed))
    # with every node, and with the extra points alone, which may skip nodes
    for xs in (sorted([*m.xs, F(0), F(1), *extra]), sorted(extra)):
        assert eval_sorted(m, xs) == [eval_map(m, x) for x in xs]


def test_eval_sorted_rejects_points_outside_the_domain_or_out_of_order(tent):
    with pytest.raises(DomainError, match="outside"):
        eval_sorted(tent, [F(0), F(5, 4)])
    with pytest.raises(DomainError, match="ascend"):
        eval_sorted(tent, [F(1, 2), F(1, 4)])


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(0, 12),
       st.lists(st.fractions(min_value=0, max_value=1, max_denominator=200), max_size=12))
def test_evaluation_matches_a_plain_fraction_interpolation(seed, interior, extra):
    m = mixed_pwa(random.Random(seed), interior)
    big_l = math.lcm(*(x.denominator for x in m.xs))
    # map nodes, both ends, and points off the nodes' common denominator
    off_grid = [F(j, 3 * big_l + 1) for j in (1, big_l, 3 * big_l)]
    points = [*m.xs, F(0), F(1), *off_grid, *extra]
    assert any(big_l % x.denominator for x in points)
    assert [eval_map(m, x) for x in points] == [value_at(m, x) for x in points]
    xs = sorted(points)
    assert eval_sorted(m, xs) == [value_at(m, x) for x in xs]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_evaluation_on_maps_without_a_common_denominator(seed):
    rng = random.Random(seed)
    primes = prime_denominator_pwa(rng, 60)
    assert math.lcm(*(x.denominator for x in primes.xs)).bit_length() > 500
    # Farey neighbours k/(2k+1): nodes about 1/(4k^2) apart on 11 denominators
    cluster = PwaMap.from_nodes([(F(0), F(1, 2))]
                                + [(F(k, 2 * k + 1), F(rng.randrange(98), 97)) for k in range(50, 61)]
                                + [(F(1), F(1, 3))])
    for m in (primes, cluster):
        # nodes and points a hair off them share the nodes' table keys
        points = near_nodes(m) + [F(j, 97) for j in range(98)]
        assert [eval_map(m, x) for x in points] == [value_at(m, x) for x in points]
        xs = sorted(set(points))
        assert eval_sorted(m, xs) == [value_at(m, x) for x in xs]
    # every table entry is built from its own nodes, so none grows with the lcm
    _, keys, pieces = primes._table
    assert max(v.bit_length() for v in keys + [abs(c) for t in pieces for c in t]) < 128


@pytest.mark.parametrize("points,message", [
    ([F(0), F(5, 4)], "eval argument 5/4 outside [0,1]"),
    ([F(-1, 3)], "eval argument -1/3 outside [0,1]"),
    ([F(1, 2), F(1, 4)], "eval points must ascend: 1/2 then 1/4"),
])
def test_evaluation_error_texts(tent, points, message):
    with pytest.raises(DomainError) as exc:
        eval_sorted(tent, points)
    assert str(exc.value) == message
    if len(points) == 1:
        with pytest.raises(DomainError) as exc:
            eval_map(tent, points[0])
        assert str(exc.value) == message


def test_a_map_with_its_node_table_built_behaves_like_a_fresh_one(half_model):
    for m in (tent_map(), mixed_pwa(random.Random(5), 9), half_model.map):
        eval_map(m, F(1, 3))
        eval_sorted(m, [F(0), F(1)])
        fresh = PwaMap(m.xs, m.ys)
        assert "_table" in vars(m) and "_table" not in vars(fresh)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        assert pickle.dumps(m) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(m))
        assert back == m and "_table" not in vars(back)
        assert eval_map(back, F(1, 3)) == eval_map(m, F(1, 3))
        assert copy.deepcopy(m) == m
        assert dump_pwa(m) == dump_pwa(fresh)


# === serialization ============================================================

def test_round_trip_is_bit_exact(tent, half_model):
    for m in (tent, identity_map(), constant_map(F(2, 7)), half_model.map):
        text = dump_pwa(m)
        assert load_pwa(text) == m
        assert dump_pwa(load_pwa(text)) == text


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_round_trip_on_random_maps(seed):
    m = random_pwa(random.Random(seed))
    assert load_pwa(dump_pwa(m)) == m


def test_load_rejects_bad_documents():
    with pytest.raises(SerializationError):
        load_pwa("not-a-map v0\n0/1 0/1\n1/1 1/1\n")
    with pytest.raises(SerializationError):
        load_pwa("pwa-map v1\n0/1 0/1 extra\n")
