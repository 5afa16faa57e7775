"""Exact piecewise-affine map algebra: evaluation, composition, iteration,
uniform distance, fixed points, canonical form, and text round-trips."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pwa
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


def test_compose_matches_pointwise_on_a_grid(tent):
    composed = compose(tent, tent)
    for j in range(65):
        x = F(j, 64)
        assert eval_map(composed, x) == eval_map(tent, eval_map(tent, x))


def test_iterate_zero_gives_identity(tent):
    assert iterate(tent, 0) == identity_map()


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


# === uniform distance =========================================================

def test_sup_distance_of_a_map_to_itself(tent):
    assert sup_distance(tent, tent) == 0


def test_sup_distance_identity_to_constant(identity):
    assert sup_distance(identity, constant_map(F(1, 2))) == F(1, 2)


def test_sup_distance_identity_to_tent(identity, tent):
    # |x - tent(x)| peaks at x = 1
    assert sup_distance(identity, tent) == F(1)


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
    lip = f.max_abs_slope()
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
