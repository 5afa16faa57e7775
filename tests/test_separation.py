"""Dynamical metric, separated-set counting by all three methods, rates,
profiles, report export, and the Markov-view text format."""
from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdimlab.separation
from conftest import (
    cylinder_interval, dn_reference, least_distances_reference, near_nodes, orbit_values,
    prime_denominator_pwa, random_boundary_fixed_pwa, random_pwa, value_at,
)
from mdimlab import (
    ContractError,
    CountRecord,
    DomainError,
    GridPrecisionError,
    MarkovBranch,
    MarkovView,
    PwaMap,
    ResourceError,
    SerializationError,
    build_fbeta,
    conjugate_into_interval,
    constant_map,
    count_cylinders,
    count_separated_exhaustive,
    count_separated_greedy,
    dn_distance,
    dump_views,
    full_lap_view,
    identity_map,
    iterate,
    load_views,
    mdim_profile,
    orbit,
    plan_sequences,
    report_to_csv,
    report_to_json,
    tent_map,
    verify_cylinder_separation,
)
from mdimlab.separation import (
    COUNT_DIGIT_CAP,
    CSV_HEADER,
    GREEDY_GRID_CAP,
    METHOD_CYLINDER,
    METHOD_EXHAUSTIVE,
    EXHAUSTIVE_POINT_CAP,
    METHOD_GREEDY,
    REPRESENTATIVE_CAP,
    _affine_runs,
    _branch_inverse,
    _cylinder_rows,
    _least_distances,
    _refuse_over_cap,
    count_at,
    cylinder_representatives,
    greedy_separated_points,
)

F = Fraction

seeds = st.integers(0, 10**9)


def tent_view() -> MarkovView:
    """The tent map as two touching full branches (no separation certificate)."""
    return MarkovView(
        F(0), F(1),
        (MarkovBranch(F(0), F(1, 2), True), MarkovBranch(F(1, 2), F(1), False)),
        separation_scale=None,
        map=tent_map(),
    )


def twelve_grid() -> list[Fraction]:
    return [F(j, 11) for j in range(12)]


# === dynamical metric =========================================================

def test_dn_distance_vanishes_on_the_diagonal(tent):
    assert dn_distance(tent, F(1, 3), F(1, 3), 4) == 0


def test_dn_distance_tent_examples(tent):
    assert dn_distance(tent, F(0), F(1, 2), 2) == 1
    assert dn_distance(tent, F(1, 10), F(1, 5), 1) == F(1, 10)
    assert dn_distance(tent, F(1, 10), F(1, 5), 2) == F(1, 5)


def test_dn_distance_needs_a_positive_window(tent):
    with pytest.raises(DomainError):
        dn_distance(tent, F(0), F(1), 0)


def test_orbit_is_pointwise(tent):
    assert orbit(tent, F(1, 10), 3) == [F(1, 10), F(1, 5), F(2, 5)]
    with pytest.raises(DomainError):
        orbit(tent, F(1, 10), 0)


# === greedy counting ==========================================================

def test_greedy_identity_wide_scale(identity):
    rec = count_separated_greedy(identity, 1, F(3, 10), F(1, 1000))
    assert rec.count == 4
    assert rec.method == METHOD_GREEDY
    assert rec.grid_resolution == F(1, 1000)


def test_greedy_scale_at_least_the_diameter_gives_one(tent):
    assert count_separated_greedy(tent, 3, F(1), F(1, 4)).count == 1


def test_greedy_tent_half_scale(tent):
    assert count_separated_greedy(tent, 1, F(1, 2), F(1, 1000)).count == 2


def test_greedy_rejects_coarse_grids(tent):
    with pytest.raises(GridPrecisionError, match=r"epsilon/4"):
        count_separated_greedy(tent, 1, F(1, 10), F(1, 20))


@pytest.mark.parametrize("grid", [
    F(1, GREEDY_GRID_CAP), F(1, 10**9), F(1, 10**12), F(3, 10**12 + 1),
])
def test_greedy_refuses_a_grid_over_the_cap_before_building_it(tent, grid):
    count = int(1 / grid) + 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError) as info:
            count_separated_greedy(tent, 1, F(1, 10), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"greedy grid capped at {GREEDY_GRID_CAP} points, got {count}"
    assert peak < 10**6  # bytes; a million-point grid takes about 100 MB


def test_exhaustive_count_refuses_a_grid_over_the_cap_before_building_it(tent):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="capped at 14 points, got 100001"):
            count_at(tent, 1, F(1, 10), METHOD_EXHAUSTIVE, grid=F(1, 10**5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # bytes; the 100,001-point grid takes about 10 MB


@pytest.mark.parametrize("grid", [F(0), F(-1, 13), F(2)])
@pytest.mark.parametrize("method", [METHOD_GREEDY, METHOD_EXHAUSTIVE])
def test_count_at_refuses_a_grid_outside_the_unit_interval(tent, grid, method):
    # a zero grid used to fall back to the default, and 2 to scan one point
    with pytest.raises(DomainError, match=r"grid resolution must lie in \(0, 1\]"):
        count_at(tent, 1, F(1, 10), method, grid=grid)


@pytest.mark.parametrize("source,method,message", [
    ("map", METHOD_CYLINDER, "cylinder method needs a MarkovView source"),
    ("view", METHOD_GREEDY, "greedy method needs a PwaMap source"),
    ("view", METHOD_EXHAUSTIVE, "exhaustive method needs a PwaMap source"),
    ("map", "bisection", "unknown method 'bisection'"),
])
def test_count_at_refuses_a_source_its_method_cannot_count(tent, source, method, message):
    with pytest.raises(DomainError) as exc:
        count_at(tent if source == "map" else tent_view(), 1, F(1, 10), method)
    assert str(exc.value) == message


def test_exhaustive_count_at_records_the_grid_it_scanned(tent):
    default = count_at(tent, 1, F(1, 10), METHOD_EXHAUSTIVE)
    assert (default.count, default.grid_resolution) == (7, F(1, EXHAUSTIVE_POINT_CAP - 1))
    rec = count_at(tent, 1, F(1, 10), METHOD_EXHAUSTIVE, grid=F(1, 4))
    assert (rec.count, rec.grid_resolution) == (5, F(1, 4))     # 0, 1/4, ..., 1


def test_greedy_is_maximal_within_its_grid(tent):
    # no unselected grid point can be added: greedy sets are inclusion-maximal
    eps, grid = F(1, 4), F(1, 16)
    points = [grid * j for j in range(17)]
    chosen = greedy_separated_points(tent, 2, eps, points)
    for p in points:
        if p in chosen:
            continue
        assert any(dn_reference(tent, p, s, 2) <= eps for s in chosen)


# === exhaustive counting ======================================================

def test_exhaustive_examples(identity):
    assert count_separated_exhaustive(identity, 1, F(2, 5), [F(0), F(1, 2), F(1)]).count == 3
    assert count_separated_exhaustive(identity, 1, F(2, 5), [F(1, 2)]).count == 1
    assert count_separated_exhaustive(identity, 1, F(3, 10), [F(0), F(1, 4), F(1, 2)]).count == 2


def test_exhaustive_caps_the_point_set(identity):
    with pytest.raises(ResourceError):
        count_separated_exhaustive(identity, 1, F(1, 2), [F(j, 20) for j in range(15)])


def test_exhaustive_rejects_empty_points(identity):
    with pytest.raises(DomainError):
        count_separated_exhaustive(identity, 1, F(1, 2), [])


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 3), st.fractions(min_value="1/10", max_value="9/10", max_denominator=20))
def test_exhaustive_matches_a_direct_subset_scan(seed, n, eps):
    rng = random.Random(seed)
    m = random_pwa(rng)
    points = sorted({F(rng.randint(0, 16), 16) for _ in range(rng.randint(1, 7))})
    rec = count_separated_exhaustive(m, n, eps, points)
    best = 0
    for r in range(len(points), 0, -1):
        if any(
            all(dn_reference(m, a, b, n) > eps for a, b in combinations(sub, 2))
            for sub in combinations(points, r)
        ):
            best = r
            break
    assert rec.count == best


def reference_mask_scan(m: PwaMap, n: int, eps: Fraction, points: list[Fraction]) -> int:
    """Largest separated subset by testing every subset mask, with adjacency
    from the reference d_n."""
    k = len(points)
    adj = [0] * k
    for i, j in combinations(range(k), 2):
        if dn_reference(m, points[i], points[j], n) > eps:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    best = 1 if k else 0
    for mask in range(1, 1 << k):
        size = mask.bit_count()
        if size > best and all(
            mask & ~adj[i] & ~(1 << i) == 0 for i in range(k) if mask >> i & 1
        ):
            best = size
    return best


THIRTEENTHS = [F(j, 13) for j in range(EXHAUSTIVE_POINT_CAP)]


@settings(max_examples=25, deadline=None)
# from 1/13 up, neighbouring grid points are not separated at time 0
@given(seeds, st.integers(1, 4), st.fractions(min_value="1/13", max_value="1/2", max_denominator=60))
def test_exhaustive_matches_a_mask_scan_at_the_point_cap(seed, n, eps):
    m = random_pwa(random.Random(seed), max_interior=5, denom=13)
    assert count_separated_exhaustive(m, n, eps, THIRTEENTHS).count == reference_mask_scan(
        m, n, eps, THIRTEENTHS
    )


@pytest.mark.parametrize("m,eps,points,expected", [
    (identity_map(), F(1, 10**6), THIRTEENTHS, 14),             # every pair separated
    (tent_map(), F(1, 14), THIRTEENTHS, 14),
    (constant_map(F(2, 5)), F(1, 50), [F(j, 1300) for j in range(14)], 1),  # none
    (identity_map(), F(1, 13), THIRTEENTHS, 7),                 # only every other point
])
def test_exhaustive_extremes_at_the_point_cap(m, eps, points, expected):
    assert len(points) == EXHAUSTIVE_POINT_CAP
    assert count_separated_exhaustive(m, 3, eps, points).count == expected
    assert reference_mask_scan(m, 3, eps, points) == expected


# === cylinder counting ========================================================

def test_cylinders_tent_binary(tent):
    assert count_cylinders(tent_view(), 5, F(1, 100)).count == 32


def test_cylinders_depth_zero_counts_one():
    assert count_cylinders(tent_view(), 0, F(1, 100)).count == 1


def test_cylinders_need_some_scale():
    with pytest.raises(DomainError, match="no scale"):
        count_cylinders(tent_view(), 3)


ONE_BRANCH_VIEW = MarkovView(F(1, 4), F(3, 4), (MarkovBranch(F(3, 8), F(5, 8), True),), F(1, 100))


@pytest.mark.parametrize("call,error,message", [
    (lambda: count_cylinders(ONE_BRANCH_VIEW, -1), DomainError,
     "count_cylinders needs n >= 0, got -1"),
    (lambda: verify_cylinder_separation(tent_view(), 2), ContractError,
     "view declares no separation scale to certify against"),
    (lambda: verify_cylinder_separation(ONE_BRANCH_VIEW, 0), DomainError,
     "verify_cylinder_separation needs n >= 1, got 0"),
], ids=["count-negative-depth", "certificate-no-scale", "certificate-depth-0"])
def test_cylinder_count_and_certificate_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: greedy_separated_points(tent_map(), 2, F(0), [F(0), F(1, 2)]),
     "epsilon must be positive, got 0"),
    (lambda: count_separated_greedy(tent_map(), 2, F(0), F(1, 10)),
     "epsilon must be positive, got 0"),
    (lambda: count_separated_greedy(tent_map(), 0, F(1, 10), F(1, 20)),
     "count_separated_greedy needs n >= 1, got 0"),
    (lambda: count_separated_exhaustive(tent_map(), 0, F(1, 10), [F(0)]),
     "count_separated_exhaustive needs n >= 1, got 0"),
], ids=["greedy-points-eps-0", "greedy-eps-0", "greedy-depth-0", "exhaustive-depth-0"])
def test_point_count_refusals(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_cylinder_counts_refuse_a_scale_above_the_declared_one(half_model):
    view = half_model.view(0)                   # declared scale 1/58
    for eps in (F(1, 58), F(1, 59), F(1, 1000)):
        assert count_cylinders(view, 2, eps) == CountRecord(2, eps, 64, METHOD_CYLINDER)
    for eps in (F(1, 57), F(1, 3)):
        with pytest.raises(ContractError,
                           match=rf"^epsilon {eps} above the scale 1/58 of view 'level 0'$"):
            count_cylinders(view, 2, eps)
    # the premises certify 1/58 and below, so nothing vouches for 8**n points at 1/3
    with pytest.raises(ContractError, match=r"^epsilon 1/3 above the scale 1/58"):
        mdim_profile([view], [F(1, 3)], (1, 4), METHOD_CYLINDER)


@pytest.mark.parametrize("grid", [F(1, 400), F(1), F(2)])
def test_cylinder_counts_take_no_grid(half_model, grid):
    # a cylinder count reads no grid, so one given to it is refused, not ignored
    with pytest.raises(DomainError, match=r"^cylinder counts take no grid$"):
        count_at(half_model.view(0), 1, F(1, 58), METHOD_CYLINDER, grid)


def test_cylinders_staircase_level_zero(half_model):
    view = half_model.view(0)
    rec = count_cylinders(view, 2)
    assert rec.count == 64
    assert rec.epsilon == F(1, 58)
    assert rec.method == METHOD_CYLINDER


def test_cylinder_representatives_are_certified_separated(half_model):
    margin = verify_cylinder_separation(half_model.view(0), 2)
    assert margin > F(1, 58)


@pytest.mark.parametrize("make_view", [
    lambda: ONE_BRANCH_VIEW,
    lambda: MarkovView(F(0), F(1), (MarkovBranch(F(0), F(1), True),), F(1, 2), identity_map()),
], ids=["geometry-only", "identity-map"])
@pytest.mark.parametrize("n", [1, 3])
def test_one_branch_certificate_is_the_core_length(make_view, n):
    # a single depth-n representative has nothing to be separated from; the
    # view is made here, not at collection, so that a fault in the map check
    # fails this test instead of the module's collection
    view = make_view()
    assert verify_cylinder_separation(view, n) == view.core_hi - view.core_lo


def test_certificate_refuses_branches_outside_the_core():
    # both branches map onto the core [0, 1/2], but [3/4, 1] is not inside
    # it: the representative of (1, 1) would be 19/16, off the interval, so
    # the view itself is refused, before its map is checked
    m = PwaMap.from_nodes([(F(0), F(0)), (F(1, 4), F(1, 2)), (F(3, 4), F(0)), (F(1), F(1, 2))])
    with pytest.raises(ContractError, match=r"^branch \[3/4, 1\] leaves the core \[0, 1/2\]$"):
        MarkovView(F(0), F(1, 2), (MarkovBranch(F(0), F(1, 4), True),
                                   MarkovBranch(F(3, 4), F(1), True)), F(1, 10), m)
    # a lone branch poking out of its core on both sides
    with pytest.raises(ContractError, match=r"^branch \[1/8, 7/8\] leaves the core \[1/4, 3/4\]$"):
        MarkovView(F(1, 4), F(3, 4), (MarkovBranch(F(1, 8), F(7, 8), True),), F(1, 100))
    # when both outer branches leave, the first is named
    with pytest.raises(ContractError, match=r"^branch \[0, 1/8\] leaves the core \[1/4, 3/4\]$"):
        MarkovView(F(1, 4), F(3, 4), (MarkovBranch(F(0), F(1, 8), True),
                                      MarkovBranch(F(7, 8), F(1), True)))


def test_cylinder_cap_refuses_before_building_a_representative(monkeypatch):
    # 142 branches give 20,164 depth-2 cylinders, just over the cap
    assert 141**2 <= REPRESENTATIVE_CAP < 142**2
    branches = tuple(MarkovBranch(F(2 * i, 284), F(2 * i + 1, 284), True) for i in range(142))
    view = MarkovView(F(0), F(1), branches, F(1, 1000))
    # every midpoint is built by a branch inverse, so none may be taken
    built = []
    monkeypatch.setattr(mdimlab.separation, "_branch_inverse", lambda *args: built.append(args))
    for refuse in (_cylinder_rows, cylinder_representatives, verify_cylinder_separation):
        with pytest.raises(ResourceError, match=f"^20164 depth-2 cylinders exceed the"
                                                f" representative cap {REPRESENTATIVE_CAP}$"):
            refuse(view, 2)
    assert built == []


def test_cylinder_cap_names_a_count_too_long_to_print():
    # 8**5000 has 4,516 digits, past the default int-to-str limit
    view = build_fbeta(plan_sequences(F(1, 2), 0)).view(0)
    assert view.branch_count == 8
    for refuse in (_cylinder_rows, cylinder_representatives, verify_cylinder_separation):
        with pytest.raises(ResourceError) as err:
            refuse(view, 5000)
        assert str(err.value) == (f"8**5000 depth-5000 cylinders exceed the representative"
                                  f" cap {REPRESENTATIVE_CAP}")


def test_cylinder_counts_refuse_more_than_the_count_digit_cap():
    # B = 10: B**4299 has 4,300 digits, B**4300 one more
    assert COUNT_DIGIT_CAP == 4300
    view = MarkovView(F(0), F(1), tuple(
        MarkovBranch(F(2 * i, 20), F(2 * i + 1, 20), True) for i in range(10)), F(1, 40))
    assert count_cylinders(view, 4299).count == 10**4299
    with pytest.raises(ResourceError, match=r"^10\*\*4300 depth-4300 cylinders: a count over"
                                            r" 4300 digits$"):
        count_cylinders(view, 4300)
    with pytest.raises(ResourceError, match=r"^10\*\*1000000000000 depth-1000000000000"):
        count_cylinders(view, 10**12)


@pytest.mark.parametrize("base,exp,cap,text", [
    (142, 2, 20000, "20164"),
    (10, 18, 1, "1000000000000000000"),      # 10**18 is still named in decimal
    (10, 19, 1, "10**19"),
    (2, 10**15, 4096, "2**1000000000000000"),  # decided on bit lengths, never built
    (10, 4300, 10**4300 - 1, "10**4300"),
    (141, 2, 20000, None), (4, 6, 4096, None), (1, 10**15, 1, None), (0, 10**15, 1, None),
    (5, -10**15, 1, None), (-3, 10**15, 1, None),
])
def test_a_count_over_its_cap_is_named_in_a_form_that_prints(base, exp, cap, text):
    if text is None:
        _refuse_over_cap(base, exp, cap, "{}")
    else:
        with pytest.raises(ResourceError) as err:
            _refuse_over_cap(base, exp, cap, "{} over")
        assert str(err.value) == f"{text} over"


def test_cylinder_rows_refuse_a_negative_depth(half_model):
    for build in (_cylinder_rows, cylinder_representatives):
        with pytest.raises(DomainError, match=r"^cylinder depth must be >= 0, got -1$"):
            build(half_model.view(0), -1)


def test_cylinder_widths_shrink_geometrically(half_model):
    view = half_model.view(0)
    for depth in (1, 2, 3):
        for itinerary in [(0,) * depth, (7,) * depth, (3, 5, 1)[:depth]]:
            lo, hi = cylinder_interval(view, itinerary)
            assert hi - lo == F(1, 2) * F(1, 29) ** depth


def test_view_rejects_gaps_at_or_below_the_declared_scale():
    with pytest.raises(ContractError, match="separation scale"):
        MarkovView(
            F(0), F(1),
            (MarkovBranch(F(0), F(1, 2), True), MarkovBranch(F(1, 2), F(1), False)),
            separation_scale=F(1, 100),
        )


@pytest.mark.parametrize("first, second, scale, message", [
    ((F(0), F(1, 4)), (F(1, 2), F(3, 4)), F(1, 4),
     "branch domain gap 1/4 not above the declared separation scale 1/4"),
    ((F(0), F(1, 4)), (F(1, 2) + F(1, 4 * 10**9), F(3, 4)), F(1, 4), None),
    ((F(0), F(1, 4)), (F(1, 4), F(1, 2)), None, None),
    ((F(0), F(1, 4)), (F(1, 4) - F(1, 10**9), F(1, 2)), None, "branch domains overlap"),
    ((F(0), F(1, 4)), (F(1, 4) - F(1, 10**9), F(1, 2)), F(1, 100), "branch domains overlap"),
    # the gap's numerator over the product of denominators is -1 (1·2 − 1·3)
    ((F(0), F(1, 2)), (F(1, 3), F(1)), None, "branch domains overlap"),
    ((F(0), F(1, 4)), (F(1, 4), F(1, 2)), F(1, 100),
     "branch domain gap 0 not above the declared separation scale 1/100"),
    ((F(0), F(1, 4)), (F(1, 2), F(3, 4)), F(0), "separation scale must be positive, got 0"),
    ((F(0), F(1, 4)), (F(1, 4), F(1, 2)), F(-1, 100),
     "separation scale must be positive, got -1/100"),
], ids=["gap-equals-scale", "gap-just-above", "touching-no-scale", "overlap",
        "overlap-with-scale", "overlap-by-one", "touching-with-scale", "zero-scale",
        "negative-scale"])
def test_view_gap_premise_at_its_boundaries(first, second, scale, message):
    branches = (MarkovBranch(*first, True), MarkovBranch(*second, False))
    if message is None:
        assert MarkovView(F(0), F(1), branches, scale).branch_count == 2
    else:
        with pytest.raises(ContractError) as err:
            MarkovView(F(0), F(1), branches, scale)
        assert str(err.value) == message


@pytest.mark.parametrize("core,branches,message", [
    ((F(1, 2), F(1, 2)), (MarkovBranch(F(1, 2), F(1), True),), "degenerate core [1/2, 1/2]"),
    ((F(1), F(0)), (MarkovBranch(F(0), F(1), True),), "degenerate core [1, 0]"),
    ((F(0), F(1)), (), "a Markov view needs at least one branch"),
], ids=["point-core", "reversed-core", "no-branches"])
def test_view_refuses_a_degenerate_core_or_no_branches(core, branches, message):
    with pytest.raises(ContractError) as exc:
        MarkovView(*core, branches, F(1, 100))
    assert str(exc.value) == message


def test_view_rejects_branches_that_miss_the_core(tent):
    with pytest.raises(ContractError, match="does not map onto the core"):
        MarkovView(F(0), F(1), (MarkovBranch(F(0), F(1, 4), True),), None, tent)


def test_view_rejects_branches_broken_by_a_node():
    # crosses the core end to end, but with a kink at 1/4 inside the branch
    kinked = PwaMap.from_nodes(
        [(F(0), F(0)), (F(1, 4), F(1, 3)), (F(1, 2), F(1)), (F(1), F(0))]
    )
    with pytest.raises(ContractError, match="not affine"):
        MarkovView(F(0), F(1), (MarkovBranch(F(0), F(1, 2), True),), None, kinked)
    # two interior kinks: the message names the smaller one
    twice = PwaMap.from_nodes(
        [(F(0), F(0)), (F(1, 8), F(1, 6)), (F(3, 8), F(2, 3)), (F(1, 2), F(1)), (F(1), F(0))]
    )
    with pytest.raises(ContractError, match="not affine: map node at 1/8$"):
        MarkovView(F(0), F(1), (MarkovBranch(F(0), F(1, 2), True),), None, twice)


def test_view_accepts_map_nodes_at_the_branch_ends():
    # nodes exactly at lo and hi of the middle branch, none strictly inside
    zigzag = PwaMap.from_nodes(
        [(F(0), F(0)), (F(1, 4), F(1)), (F(3, 4), F(0)), (F(1), F(1))]
    )
    branches = (
        MarkovBranch(F(0), F(1, 4), True),
        MarkovBranch(F(1, 4), F(3, 4), False),
        MarkovBranch(F(3, 4), F(1), True),
    )
    view = MarkovView(F(0), F(1), branches, None, zigzag)
    assert view.branch_count == 3


# four quarter-width pieces over the core [0, 1]: up, down with a kink at
# 3/8, up with a kink at 5/8, and a last one that ends at 1/2, off the core
KINKED = PwaMap.from_nodes([
    (F(0), F(0)), (F(1, 4), F(1)), (F(3, 8), F(1, 3)), (F(1, 2), F(0)),
    (F(5, 8), F(1, 3)), (F(3, 4), F(1)), (F(1), F(1, 2)),
])
QUARTERS = [(F(0), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(3, 4), F(1))]


@pytest.mark.parametrize("layout,message", [
    # every branch after the first fails too; the error names the first
    ({0: True, 1: False, 2: True, 3: False}, "branch [1/4, 1/2] is not affine: map node at 3/8"),
    ({0: False, 1: False, 2: True, 3: False},
     "branch [0, 1/4] does not map onto the core: endpoint values (0, 1),"
     " expected (Fraction(1, 1), Fraction(0, 1))"),
    ({1: True, 2: True, 3: False},
     "branch [1/4, 1/2] does not map onto the core: endpoint values (1, 0),"
     " expected (Fraction(0, 1), Fraction(1, 1))"),
    ({0: True, 2: True, 3: False}, "branch [1/2, 3/4] is not affine: map node at 5/8"),
    ({0: True, 3: False},
     "branch [3/4, 1] does not map onto the core: endpoint values (1, 1/2),"
     " expected (Fraction(1, 1), Fraction(0, 1))"),
], ids=["node-then-more", "first-endpoints", "endpoints-before-node", "node-then-endpoints",
        "last-endpoints"])
def test_view_check_names_the_first_failing_branch(layout, message):
    branches = tuple(MarkovBranch(*QUARTERS[i], up) for i, up in layout.items())
    with pytest.raises(ContractError) as err:
        MarkovView(F(0), F(1), branches, None, KINKED)
    assert str(err.value) == message


def test_view_check_finds_a_node_just_above_the_branch_start():
    # 997/3000 lies just below the node 1/3 and shares its table key
    # floor(128·x) = 42; the map takes 1 and 0 at the branch ends, as a falling branch needs
    m = PwaMap.from_nodes([(F(0), F(0)), (F(1, 4), F(1)), (F(1, 3), F(1)), (F(1, 2), F(0)),
                           (F(1), F(0))])
    shift, keys, _ = m._table
    assert keys == [0, 32, 42, 64, 128] and F(997, 3000) * 2**shift // 1 == 42
    branch = MarkovBranch(F(997, 3000), F(1, 2), False)
    with pytest.raises(ContractError, match=r"^branch \[997/3000, 1/2\] is not affine: map node at 1/3$"):
        MarkovView(F(0), F(1), (branch,), None, m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([24, 1009]),
       st.sampled_from(["a + tiny", "c - tiny", "c", "inside"]), st.booleans())
def test_view_check_finds_the_least_node_above_the_branch_start(seed, denom, start, kink):
    # the map climbs to a plateau at 1 on [a, c], falls to 0 at e (with a
    # kink strictly inside [c, e] if asked) and wanders on either side; the
    # falling branch [lo, e] maps onto the core [0, 1] for every lo in [a, c].
    # Starts 10^-9 off a or c mostly share a node key with a or c
    rng = random.Random(seed)
    a, c, e = sorted(F(k, denom) for k in rng.sample(range(1, denom), 3))
    nodes = [(F(0), F(rng.randrange(denom), denom)), (a, F(1)), (c, F(1)), (e, F(0)),
             (F(1), F(rng.randrange(denom), denom))]
    if kink:
        nodes.append((c + (e - c) * F(rng.randrange(1, 100), 100), F(rng.randrange(1, denom), denom)))
    m = PwaMap.from_nodes(sorted(nodes))
    lo = {"a + tiny": a + F(1, 10**9), "c - tiny": c - F(1, 10**9), "c": c,
          "inside": a + (c - a) * F(rng.randrange(1, 1000), 1000)}[start]
    inside = [x for x in m.xs if lo < x < e]
    branch = MarkovBranch(lo, e, False)
    if inside:
        with pytest.raises(ContractError) as err:
            MarkovView(F(0), F(1), (branch,), None, m)
        assert str(err.value) == f"branch [{lo}, {e}] is not affine: map node at {min(inside)}"
    else:
        assert MarkovView(F(0), F(1), (branch,), None, m).map == m


def test_view_check_refuses_a_branch_past_1():
    branch = MarkovBranch(F(3, 4), F(5, 4), True)
    # inside [0, 1] as a core, the branch is refused before the map is read
    with pytest.raises(ContractError, match=r"^branch \[3/4, 5/4\] leaves the core \[0, 1\]$"):
        MarkovView(F(0), F(1), (branch,), None, KINKED)
    # a core reaching past 1 holds it, and the map cannot value its end
    with pytest.raises(DomainError, match="eval argument 5/4 outside"):
        MarkovView(F(0), F(5, 4), (branch,), None, KINKED)


# === exact integer orbits =====================================================
# The greedy and exhaustive counts and map-attached cylinder certificates run
# on scaled integer orbits; these tests hold them, and the pointwise path
# (orbit, dn_distance) that reads the same node table, to the reference
# interpolation in conftest, written apart from the library.

def reference_greedy(m: PwaMap, n: int, eps: Fraction, points: list[Fraction]) -> list[Fraction]:
    """Greedy left-to-right separated subset, comparing every pair by the reference d_n."""
    chosen: list[Fraction] = []
    for x in sorted(points):
        if all(dn_reference(m, x, s, n) > eps for s in chosen):
            chosen.append(x)
    return chosen


def run_orbit(run: tuple, g: int, big_d: int) -> list[Fraction]:
    """Point g's orbit read off its run (first, count, orbit): f^k is (S_k + g·step_k)/D."""
    return [F(b + g * t, big_d) for b, t in run[2]]


def kernel_orbit_values(m: PwaMap, points: list[Fraction], n: int) -> list[list[Fraction]]:
    """The points' orbits off the integer stepper, each pushed as a run of one."""
    den = math.lcm(*(F(x).denominator for x in points))
    nums = [int(F(x) * den) for x in points]
    runs, big_d = _affine_runs(m, [(i, 1, v, 0) for i, v in enumerate(nums)], den, n)
    assert [(first, count) for first, count, _ in runs] == [(i, 1) for i in range(len(points))]
    return [run_orbit(run, run[0], big_d) for run in runs]


unit_points = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=40), min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 6), unit_points)
def test_integer_orbits_equal_pointwise_orbits(seed, n, points):
    rng = random.Random(seed)
    m = random_pwa(rng)
    # map nodes, both ends and mixed denominators
    points = points + list(m.xs) + [F(0), F(1), F(1, 3), F(5, 7)]
    expected = [orbit_values(m, x, n) for x in points]
    assert kernel_orbit_values(m, points, n) == expected
    assert [orbit(m, x, n) for x in points] == expected
    assert dn_distance(m, points[0], points[-1], n) == dn_reference(m, points[0], points[-1], n)


def test_integer_orbits_on_a_map_without_a_common_denominator():
    m = prime_denominator_pwa(random.Random(4), 30)
    points = near_nodes(m)
    assert kernel_orbit_values(m, points, 3) == [orbit_values(m, x, 3) for x in points]


def test_integer_orbits_stay_exact_over_thirty_steps():
    rng = random.Random(11)
    m = random_pwa(rng, max_interior=4, denom=24)
    points = [F(1, 3), F(2, 7), F(13, 24), F(1)]
    assert kernel_orbit_values(m, points, 30) == [orbit_values(m, x, 30) for x in points]


def test_integer_orbits_reject_points_off_the_unit_interval(tent):
    for n in (1, 2):
        # runs of one: the first point off [0, 1] is named
        with pytest.raises(DomainError, match=r"^eval argument 5/4 outside \[0,1\]$"):
            _affine_runs(tent, [(0, 1, 2, 0), (1, 1, 5, 0), (2, 1, -1, 0)], 4, n)
        with pytest.raises(DomainError, match=r"^eval argument -1/4 outside \[0,1\]$"):
            _affine_runs(tent, [(0, 1, 4, 0), (1, 1, -1, 0)], 4, n)
        # a run is refused by its ends: 2/4, 3/4, 4/4 is in, 2/4 .. 5/4 is not
        assert sum(r[1] for r in _affine_runs(tent, [(0, 3, 2, 1)], 4, n)[0]) == 3
        with pytest.raises(DomainError, match=r"^eval argument 5/4 outside \[0,1\]$"):
            _affine_runs(tent, [(0, 4, 2, 1)], 4, n)
    # the window is checked before the points
    with pytest.raises(DomainError, match=r"^orbit needs n >= 1, got 0$"):
        _affine_runs(tent, [(0, 1, 5, 0)], 4, 0)


@pytest.mark.parametrize("n", [1, 2])
def test_counts_reject_points_off_the_unit_interval_at_every_n(tent, n):
    points = [F(0), F(5, 4), F(-3)]
    # each names its first point off [0, 1]: the exhaustive count in the
    # given order, the greedy count in ascending order
    with pytest.raises(DomainError, match=r"^eval argument 5/4 outside \[0,1\]$"):
        count_separated_exhaustive(tent, n, F(1, 10), points)
    with pytest.raises(DomainError, match=r"^eval argument -3 outside \[0,1\]$"):
        greedy_separated_points(tent, n, F(1, 10), points)
    with pytest.raises(DomainError, match=r"^eval argument -1 outside \[0,1\]$"):
        dn_distance(tent, F(-1), F(5), n)
    with pytest.raises(DomainError, match=r"^eval argument 5/4 outside \[0,1\]$"):
        orbit(tent, F(5, 4), n)


@pytest.mark.parametrize("x, n, want", [
    (F(0), 1, [F(0)]), (F(1), 1, [F(1)]), (F(0), 2, [F(0), F(0)]), (F(1), 2, [F(1), F(0)]),
], ids=["0-n1", "1-n1", "0-n2", "1-n2"])
def test_orbit_and_dn_distance_accept_the_endpoints_at_every_n(tent, x, n, want):
    # the domain check is closed: 0 and 1 themselves are points of [0, 1]
    assert orbit(tent, x, n) == want
    assert dn_distance(tent, x, 1 - x, n) == 1


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 4),
       st.fractions(min_value="1/40", max_value="1/2", max_denominator=40), unit_points)
def test_greedy_selection_matches_a_reference_greedy(seed, n, eps, points):
    rng = random.Random(seed)
    m = random_pwa(rng)
    points = sorted(set(points + list(m.xs)))
    assert greedy_separated_points(m, n, eps, points) == reference_greedy(m, n, eps, points)


def explicit_grid(grid: Fraction) -> list[Fraction]:
    """The uniform grid {0, g, 2g, ...} ∩ [0,1] as Fractions."""
    return [grid * j for j in range(int(1 / grid) + 1)]


@pytest.mark.parametrize("seed,nodes", [(1, 4), (2, 7), (5, 12)])
@pytest.mark.parametrize("n,eps,grid", [
    (1, F(1, 10), F(1, 40)), (2, F(1, 10), F(1, 40)), (3, F(1, 7), F(1, 29)),
])
def test_greedy_count_matches_a_reference_greedy_on_prime_denominator_maps(
    seed, nodes, n, eps, grid
):
    m = prime_denominator_pwa(random.Random(seed), nodes)
    chosen = reference_greedy(m, n, eps, explicit_grid(grid))
    assert count_separated_greedy(m, n, eps, grid).count == len(chosen)
    assert greedy_separated_points(m, n, eps, explicit_grid(grid)) == chosen


@pytest.mark.parametrize("grid,eps", [
    (F(2, 9), F(8, 9)), (F(2, 11), F(8, 11)), (F(3, 40), F(3, 10)), (F(3, 40), F(2, 5)),
    (F(5, 97), F(1, 4)),
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_greedy_count_on_grids_whose_step_numerator_is_not_one(grid, eps, n):
    maps = [tent_map(), identity_map(), random_pwa(random.Random(7)),
            prime_denominator_pwa(random.Random(8), 6)]
    for m in maps:
        rec = count_separated_greedy(m, n, eps, grid)
        assert rec.count == len(reference_greedy(m, n, eps, explicit_grid(grid)))
        assert rec.grid_resolution == grid


# === greedy counts on affine runs ============================================
# The greedy count pushes its grid through the map as runs, arithmetic
# progressions that stay inside one piece at every depth, chooses by stride
# inside each run and checks only run edges pointwise; these tests hold the
# counts to the pairwise reference greedy and pin the runs themselves.

def grid_runs(m: PwaMap, n: int, grid: Fraction) -> tuple[list[tuple], int]:
    """The greedy grid's runs at depth n − 1 and their denominator D."""
    p, q = grid.as_integer_ratio()
    return _affine_runs(m, [(0, q // p + 1, 0, p)], q, n)


def assert_greedy_matches_the_reference(m: PwaMap, n: int, eps: Fraction, grid: Fraction) -> None:
    assert count_separated_greedy(m, n, eps, grid).count == len(
        reference_greedy(m, n, eps, explicit_grid(grid)))


@settings(max_examples=40, deadline=None)
@given(seeds, st.booleans(), st.integers(1, 6),
       st.fractions(min_value="1/8", max_value="1/2", max_denominator=16), st.integers(4, 9))
def test_greedy_count_on_runs_matches_a_reference_greedy(seed, prime, n, eps, k):
    rng = random.Random(seed)
    m = prime_denominator_pwa(rng, rng.randint(2, 5)) if prime else random_pwa(rng)
    # eps/k has step numerator eps.numerator / gcd(eps.numerator, k), often not 1
    assert_greedy_matches_the_reference(m, n, eps, eps / k)


FLAT_PIECE_MAP = PwaMap.from_nodes([(F(0), F(0)), (F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)),
                                     (F(1), F(1))])
DECREASING_MAP = PwaMap.from_nodes([(F(0), F(1)), (F(2, 5), F(1, 5)), (F(1), F(0))])
# nodes on the 1/40 grid, 1 among them, and a piece of each orientation
NODES_ON_GRID_MAP = PwaMap.from_nodes([(F(0), F(1, 2)), (F(1, 4), F(1)), (F(1, 2), F(0)),
                                       (F(3, 4), F(3, 4)), (F(1), F(1, 4))])


@pytest.mark.parametrize("m,eps,grid", [
    (constant_map(F(2, 5)), F(1, 10), F(1, 40)),
    (FLAT_PIECE_MAP, F(1, 10), F(1, 40)),
    (DECREASING_MAP, F(1, 10), F(1, 40)),
    (DECREASING_MAP, F(3, 20), F(3, 80)),
    (NODES_ON_GRID_MAP, F(1, 10), F(1, 40)),
    (NODES_ON_GRID_MAP, F(1, 8), F(1, 36)),
])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_greedy_count_on_runs_on_explicit_maps(m, eps, grid, n):
    assert_greedy_matches_the_reference(m, n, eps, grid)


def test_runs_after_a_flat_piece_have_step_zero():
    runs, _ = grid_runs(FLAT_PIECE_MAP, 2, F(1, 40))
    flat = [r for r in runs if r[2][-1][1] == 0]
    # the grid points 14/40 .. 26/40 lie inside the flat piece (1/3, 2/3)
    assert [(first, count) for first, count, _ in flat] == [(14, 13)]
    # the orbit keeps time 0's spacing, so the widest step stays positive
    assert all(r[2][0][1] > 0 for r in flat)
    for n in (3, 4):
        runs, _ = grid_runs(constant_map(F(2, 5)), n, F(1, 40))
        assert all(t == 0 for r in runs for _, t in r[2][1:])


def test_runs_split_on_nodes_and_cover_the_grid_in_index_order():
    for m in (NODES_ON_GRID_MAP, DECREASING_MAP, tent_map()):
        for n in range(1, 6):
            runs, big_d = grid_runs(m, n, F(1, 40))
            assert [r[0] for r in runs] == list(accumulate([0] + [r[1] for r in runs[:-1]]))
            assert sum(r[1] for r in runs) == 41
            # every run is affine at every depth: its points' orbits
            for run in runs:
                first, count, orbit = run
                assert len(orbit) == n
                for g in range(first, first + count):
                    assert run_orbit(run, g, big_d) == orbit_values(m, F(g, 40), n)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 5), st.data())
def test_points_of_one_run_are_their_index_gap_times_the_widest_step_apart(seed, n, data):
    m = random_pwa(random.Random(seed))
    runs, big_d = grid_runs(m, n, F(1, 60))
    first, count, orbit = data.draw(st.sampled_from(runs))
    wide = max(abs(t) for _, t in orbit)
    i = data.draw(st.integers(first, first + count - 1))
    j = data.draw(st.integers(first, first + count - 1))
    assert dn_reference(m, F(i, 60), F(j, 60), n) == F(abs(i - j) * wide, big_d)


RUN_MAPS = [
    random_pwa,
    lambda rng: prime_denominator_pwa(rng, rng.randint(2, 6)),
    lambda rng: FLAT_PIECE_MAP,
    lambda rng: DECREASING_MAP,
    lambda rng: NODES_ON_GRID_MAP,
]


@settings(max_examples=80, deadline=None)
@given(seeds, st.sampled_from(RUN_MAPS), st.integers(1, 6), st.integers(2, 7),
       st.integers(1, 40), st.booleans())
def test_every_grid_point_reads_its_whole_orbit_off_its_run(seed, make_map, n, p, k, low):
    m = make_map(random.Random(seed))
    # the grid p/q, q = p·k + 1 or p·k + p − 1, so its step numerator p is not 1
    grid = F(p, p * k + (1 if low else p - 1))
    assert grid.numerator == p
    runs, big_d = grid_runs(m, n, grid)
    assert [g for first, count, _ in runs for g in range(first, first + count)] == list(
        range(int(1 / grid) + 1))
    for run in runs:
        for g in range(run[0], run[0] + run[1]):
            # every depth, not only f^(n−1)
            assert run_orbit(run, g, big_d) == orbit_values(m, grid * g, n)


def test_a_run_shorter_than_its_head():
    # nodes every 1/25 on the 1/100 grid: runs of at most 5 points, while a
    # head holds the 5 points within eps = 1/25 of its run's start
    zigzag = PwaMap.from_nodes([(F(j, 25), F(j % 2)) for j in range(26)])
    runs, _ = grid_runs(zigzag, 2, F(1, 100))
    assert min(r[1] for r in runs) < 5
    for n in (1, 2, 3):
        assert_greedy_matches_the_reference(zigzag, n, F(1, 25), F(1, 100))


def test_tent_runs_approach_points_at_depth_twelve(tent):
    runs, _ = grid_runs(tent, 12, F(1, 40))
    assert 30 < len(runs) <= 41
    assert_greedy_matches_the_reference(tent, 12, F(1, 10), F(1, 40))
    assert_greedy_matches_the_reference(tent, 12, F(1, 8), F(1, 36))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tent_runs_on_the_1_4000_grid_double_at_each_depth(tent, n):
    assert len(grid_runs(tent, n, F(1, 4000))[0]) == 2 ** (n - 1)


# f = (0,0) (1/3,1) (1,1/7): slope -9/7 on the right piece, so 1/2 and 3/5
# are 1/10 apart at time 0 and exactly 9/70 apart at time 1
EXACT_GAP_MAP = PwaMap.from_nodes([(F(0), F(0)), (F(1, 3), F(1)), (F(1), F(1, 7))])


@pytest.mark.parametrize("m,n,pair,eps", [
    (identity_map(), 1, (F(0), F(3, 10)), F(3, 10)),        # apart at time 0
    (EXACT_GAP_MAP, 2, (F(1, 2), F(3, 5)), F(9, 70)),       # apart at time 1
    (tent_map(), 2, (F(1, 7), F(1, 5)), F(4, 35)),          # apart at time 1
])
def test_a_pair_exactly_epsilon_apart_is_not_separated(m, n, pair, eps):
    assert dn_distance(m, *pair, n) == eps
    assert greedy_separated_points(m, n, eps, list(pair)) == [pair[0]]
    assert count_separated_exhaustive(m, n, eps, list(pair)).count == 1
    # any smaller scale separates them
    smaller = eps - F(1, 10**6)
    assert greedy_separated_points(m, n, smaller, list(pair)) == list(pair)
    assert count_separated_exhaustive(m, n, smaller, list(pair)).count == 2


CERTIFIED_VIEWS = [  # (beta, K, level, n): at most 125 representatives
    (F(1, 4), 1, 0, 3), (F(1, 4), 1, 1, 2), (F(1, 3), 1, 0, 3), (F(1, 3), 1, 1, 1),
    (F(4, 11), 1, 1, 1), (F(2, 5), 0, 0, 2), (F(5, 11), 0, 0, 3),
]


@pytest.mark.parametrize("beta,k,level,n", CERTIFIED_VIEWS)
def test_cylinder_certificate_is_the_least_pairwise_dn(beta, k, level, n):
    view = build_fbeta(plan_sequences(beta, k)).view(level)
    assert view.map is not None
    reps = [x for _, x in cylinder_representatives(view, n)]
    orbits = [orbit_values(view.map, x, n) for x in reps]
    least = min(max(abs(a - b) for a, b in zip(ox, oy)) for ox, oy in combinations(orbits, 2))
    assert verify_cylinder_separation(view, n) == least
    # the branch-geometry path of a loaded view (no map) agrees
    (loaded,) = load_views(dump_views([view]))
    assert loaded.map is None
    assert verify_cylinder_separation(loaded, n) == least


def forward_walk_certificate(view: MarkovView, n: int) -> Fraction:
    """Least pairwise d_n over the depth-n representatives, each orbit walked
    forward from its cylinder midpoint by the affine branch formula."""
    width = view.core_hi - view.core_lo
    rows = []
    for itinerary, x in cylinder_representatives(view, n):
        row = [x]
        for idx in itinerary[:-1]:
            br = view.branches[idx]
            t = (row[-1] - br.lo) / (br.hi - br.lo)
            row.append(view.core_lo + t * width if br.increasing else view.core_hi - t * width)
        rows.append(row)
    if len(rows) == 1:
        return width
    return min(max(abs(a - b) for a, b in zip(r, s)) for r, s in combinations(rows, 2))


def realizing_map(view: MarkovView) -> PwaMap:
    """A map equal to every branch on its domain and affine in between."""
    nodes = [(F(0), view.core_lo)]
    for br in view.branches:
        ends = (view.core_lo, view.core_hi) if br.increasing else (view.core_hi, view.core_lo)
        nodes += [(br.lo, ends[0]), (br.hi, ends[1])]
    return PwaMap.from_nodes(nodes + [(F(1), view.core_lo)])


# (2B + 2 sorted cut points over 1/96, B directions): the outer two cuts bound
# the core, the inner ones bound B branches with positive gaps inside it
branch_layouts = st.integers(1, 5).flatmap(lambda b: st.tuples(
    st.lists(st.integers(0, 96), min_size=2 * b + 2, max_size=2 * b + 2, unique=True),
    st.lists(st.booleans(), min_size=b, max_size=b),
))


def layout_view(layout, scale_share: Fraction | None, label: str) -> MarkovView:
    """The view of a ``branch_layouts`` example, at the given share of its
    least gap (the core length for one branch) or at no scale."""
    cuts, ups = layout
    cuts = [F(c, 96) for c in sorted(cuts)]
    inner = cuts[1:-1]
    branches = tuple(MarkovBranch(lo, hi, up) for lo, hi, up in zip(inner[::2], inner[1::2], ups))
    least = min((b.lo - a.hi for a, b in zip(branches, branches[1:])), default=cuts[-1] - cuts[0])
    scale = None if scale_share is None else least * scale_share
    return MarkovView(cuts[0], cuts[-1], branches, scale, label=label)


@settings(max_examples=40, deadline=None)
@given(branch_layouts, st.integers(1, 3))
@example(([10, 20, 70, 90], [False]), 3)                   # one branch: the core length
@example(([0, 1, 40, 50, 95, 96], [True, False]), 3)       # an up and a down branch
def test_cylinder_certificate_matches_the_forward_walk(layout, n):
    cuts, ups = layout
    cuts = [F(c, 96) for c in sorted(cuts)]
    inner = cuts[1:-1]
    branches = tuple(MarkovBranch(lo, hi, up) for lo, hi, up in zip(inner[::2], inner[1::2], ups))
    gaps = [b.lo - a.hi for a, b in zip(branches, branches[1:])]
    view = MarkovView(cuts[0], cuts[-1], branches, min(gaps, default=F(1)) / 2)
    with_map = dataclasses.replace(view, map=realizing_map(view))
    (loaded,) = load_views(dump_views([with_map]))
    expected = forward_walk_certificate(view, n)
    for v in (view, with_map, loaded):
        assert verify_cylinder_separation(v, n) == expected


def reference_map_check(view: MarkovView, m: PwaMap) -> str | None:
    """The first failing branch's refusal, by ``value_at`` and a scan of the
    nodes, or None when every branch is a full affine branch of m."""
    for br in view.branches:
        got = (value_at(m, br.lo), value_at(m, br.hi))
        want = (view.core_lo, view.core_hi) if br.increasing else (view.core_hi, view.core_lo)
        if got != want:
            return (f"branch [{br.lo}, {br.hi}] does not map onto the core:"
                    f" endpoint values ({got[0]}, {got[1]}), expected {want}")
        inside = [x for x in m.xs if br.lo < x < br.hi]
        if inside:
            return f"branch [{br.lo}, {br.hi}] is not affine: map node at {min(inside)}"
    return None


@settings(max_examples=150, deadline=None)
@given(branch_layouts, st.lists(st.tuples(st.integers(0, 192), st.integers(0, 12)), max_size=3))
@example(([0, 10, 30, 31, 60, 96], [False, True]), [(40, 6)])      # a kink inside a branch
@example(([0, 10, 30, 31, 60, 96], [False, True]), [(62, 5)])      # a new value at a branch end
def test_view_map_check_matches_a_reference(layout, kinks):
    # the realizing map with nodes added or moved on the 1/192 grid: inside a
    # branch, on one of its ends, or in a gap
    view = layout_view(layout, None, "")
    nodes = dict(realizing_map(view).nodes())
    for x, y in kinks:
        nodes[F(x, 192)] = F(y, 12)
    m = PwaMap.from_nodes(sorted(nodes.items()))
    want = reference_map_check(view, m)
    if want is None:
        assert dataclasses.replace(view, map=m).map == m
    else:
        with pytest.raises(ContractError) as err:
            dataclasses.replace(view, map=m)
        assert str(err.value) == want


@settings(max_examples=40, deadline=None)
@given(branch_layouts, st.integers(0, 4))
@example(([0, 10, 30, 31, 60, 96], [False, True]), 4)       # uneven widths, down then up
@example(([0, 10, 30, 31, 60, 96], [False, True]), 0)       # [[]], and the core's midpoint
def test_tree_built_orbits_match_the_pullback_chain(layout, n):
    cuts, ups = layout
    cuts = [F(c, 96) for c in sorted(cuts)]
    inner = cuts[1:-1]
    view = MarkovView(cuts[0], cuts[-1], tuple(
        MarkovBranch(lo, hi, up) for lo, hi, up in zip(inner[::2], inner[1::2], ups)))
    n = min(n, max(k for k in (1, 2, 3, 4) if view.branch_count**k <= 256))
    rows, den = _cylinder_rows(view, n)
    orbits = [[F(v, den) for v in row] for row in rows]
    itineraries = list(product(range(view.branch_count), repeat=n))
    assert len(orbits) == len(itineraries)
    for w, row in zip(itineraries, orbits):
        assert row == [sum(cylinder_interval(view, w[t:])) / 2 for t in range(n)]
    # a representative is its cylinder's midpoint: the row's head, the core's at depth 0
    assert cylinder_representatives(view, n) == [
        (w, sum(cylinder_interval(view, w)) / 2) for w in itineraries]


@settings(max_examples=40, deadline=None)
@given(branch_layouts, st.integers(0, 4))
@example(([0, 10, 30, 31, 60, 96], [False, True]), 4)       # uneven widths, down then up
@example(([0, 10, 30, 31, 60, 96], [False, True]), 0)       # [[]] over q alone
def test_cylinder_rows_lie_over_q_times_d_to_the_n(layout, n):
    # the integer core: the core's midpoint is p/q and the branch inverses
    # share the denominator D, so every row lies over q·D^n
    cuts, ups = layout
    cuts = [F(c, 96) for c in sorted(cuts)]
    inner = cuts[1:-1]
    view = MarkovView(cuts[0], cuts[-1], tuple(
        MarkovBranch(lo, hi, up) for lo, hi, up in zip(inner[::2], inner[1::2], ups)))
    n = min(n, max(k for k in (1, 2, 3, 4) if view.branch_count**k <= 256))
    rows, den = _cylinder_rows(view, n)
    q = ((view.core_lo + view.core_hi) / 2).denominator
    big_d = math.lcm(*(v.denominator for br in view.branches for v in _branch_inverse(view, br)))
    assert den == q * big_d**n
    assert all(type(v) is int for row in rows for v in row)


def test_certify_view_audit_at_depth_three():
    # 17^3 = 4,913 rows, about 12 M pairs, a scale where only the sweep is cheap
    view = build_fbeta(plan_sequences(F(4, 11), 1)).view(1)
    assert view.branch_count == 17
    assert verify_cylinder_separation(view, 3) == F(1, 585) == verify_cylinder_separation(view, 1)


@settings(max_examples=60, deadline=None)
@given(branch_layouts.filter(lambda layout: len(layout[1]) >= 2), st.integers(1, 4))
@example(([0, 10, 40, 41, 70, 96], [True, False]), 4)      # one gap of 1/96
def test_the_audit_is_at_least_the_least_domain_gap(layout, n):
    # the view's proof, audited: representatives whose itineraries first
    # differ at time t are then in two branch domains, so at least the least
    # gap apart, whatever the widths, gaps and orientations
    cuts, ups = layout
    cuts = [F(c, 96) for c in sorted(cuts)]
    inner = cuts[1:-1]
    branches = tuple(MarkovBranch(lo, hi, up) for lo, hi, up in zip(inner[::2], inner[1::2], ups))
    least_gap = min(b.lo - a.hi for a, b in zip(branches, branches[1:]))
    view = MarkovView(cuts[0], cuts[-1], branches, least_gap * (1 - F(1, 10**6)))
    assert verify_cylinder_separation(view, n) >= least_gap


# === the pairwise kernel =======================================================

kernel_values = st.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(kernel_values, min_size=width, max_size=width), min_size=1, max_size=14)))
@example([[5]])                                                  # one row
@example([[3], [-1], [7], [2]])                                  # one-entry rows
@example([[0, 1], [2, -1]])                                      # two rows
@example([[0, 2], [5, 2], [-3, 2], [1, 2]])                      # one group: one last entry
@example([[2, 0], [2, 1], [2, 2], [2, 3]])                       # ties
@example([[3, 1], [7, -1], [3, 1], [0, 4]])                      # a duplicate row
@example([[0, 5], [0, 0], [0, 1]])                               # found scanning left
@example([[-5, -1], [-9, -3], [-1, -7], [-4, -6]])               # negative entries
@example([[0, 3, 1], [4, 3, 1], [2, 3, 1], [9, 0, 1], [1, 0, 2]])  # nested groups
@example([[2, -1], [2, -1], [2, -1]])                            # all rows identical
@example([[0, 0], [5, 0], [1, 1], [7, 3]])                       # nearest in another group
@example([[0, 0, 0], [6, 2, 0], [1, 3, 0], [9, 3, 0], [2, 1, 1]])  # ... one level down
def test_pruned_kernel_matches_all_pairs(rows):
    assert _least_distances(rows) == least_distances_reference(rows)


@settings(max_examples=40, deadline=None)
@given(branch_layouts, st.integers(1, 3))
@example(([0, 1, 40, 50, 95, 96], [True, False]), 3)       # two groups, far apart
@example(([10, 20, 70, 90], [False]), 2)                   # one branch: one row
def test_pruned_kernel_matches_all_pairs_on_cylinder_rows(layout, n):
    # entry t of a cylinder row is mid C(w[t:]), so rows that share w[t:]
    # share every entry from t on, and the sweep's groups are the subtrees of
    # the itinerary tree: the case the recursion is for
    cuts, ups = layout
    cuts = [F(c, 96) for c in sorted(cuts)]
    inner = cuts[1:-1]
    view = MarkovView(cuts[0], cuts[-1], tuple(
        MarkovBranch(lo, hi, up) for lo, hi, up in zip(inner[::2], inner[1::2], ups)))
    rows, _ = _cylinder_rows(view, n)
    assert len({row[-1] for row in rows}) == view.branch_count
    assert _least_distances(rows) == least_distances_reference(rows)


# === rates and profiles =======================================================

def test_rate_identity_is_flat(identity):
    entry = mdim_profile([identity], [F(1, 10)], (1, 3), METHOD_GREEDY, F(1, 40)).entries[0]
    assert entry.h_hat == 0.0
    assert entry.ratio == 0.0


def test_rate_tent_cylinder_gives_log_two():
    entry = mdim_profile([tent_view()], [F(1, 100)], (2, 8), METHOD_CYLINDER).entries[0]
    assert entry.h_hat == pytest.approx(math.log(2), abs=1e-12)
    assert entry.max_step == pytest.approx(math.log(2), abs=1e-12)


def test_rate_staircase_level_zero(half_model):
    entry = mdim_profile([half_model.view(0)], [F(1, 58)], (1, 4), METHOD_CYLINDER).entries[0]
    assert entry.h_hat == pytest.approx(math.log(8), abs=1e-12)
    assert entry.ratio == pytest.approx(math.log(8) / math.log(58), abs=1e-12)


def test_rate_window_validation(identity):
    with pytest.raises(DomainError):
        mdim_profile([identity], [F(1, 10)], (3, 3), METHOD_GREEDY, F(1, 40))
    with pytest.raises(DomainError):
        mdim_profile([identity], [F(3, 2)], (1, 3), METHOD_GREEDY, F(1, 40))


def test_profile_identity_is_zero(identity):
    report = mdim_profile(identity, [F(1, 10), F(1, 100)], (1, 3), METHOD_GREEDY, F(1, 400))
    assert [e.ratio for e in report.entries] == [0.0, 0.0]
    assert report.upper == report.lower == 0.0


def test_profile_tent_ratios_decay_like_log_two():
    scales = [F(1, 10), F(1, 100), F(1, 1000)]
    report = mdim_profile(tent_view(), scales, (1, 4), METHOD_CYLINDER)
    ratios = [e.ratio for e in report.entries]
    for ratio, eps in zip(ratios, scales):
        assert ratio == pytest.approx(math.log(2) / abs(math.log(eps)), abs=1e-12)
    assert ratios[0] > ratios[1] > ratios[2]


def test_profile_staircase_levels_bracket_one_half(half_model):
    views = [half_model.view(0), half_model.view(1)]
    scales = [F(1, 58), F(1, 214948)]
    report = mdim_profile(views, scales, (1, 3), METHOD_CYLINDER)
    for entry in report.entries:
        assert abs(entry.ratio - 0.5) < 0.1


def test_profile_validation(identity):
    with pytest.raises(DomainError):
        mdim_profile(identity, [], (1, 3), METHOD_GREEDY)
    with pytest.raises(DomainError):
        mdim_profile(identity, [F(1, 10), F(1, 10)], (1, 3), METHOD_GREEDY)
    with pytest.raises(DomainError):
        mdim_profile([identity], [F(1, 10), F(1, 100)], (1, 3), METHOD_GREEDY)


@pytest.mark.parametrize("workers", [0, -5])
def test_profile_refuses_fewer_than_one_worker(tent, workers):
    with pytest.raises(DomainError, match=f"workers must be >= 1, got {workers}"):
        mdim_profile(tent, [F(1, 10)], (1, 2), METHOD_GREEDY, workers=workers)


def test_count_record_validation():
    with pytest.raises(DomainError):
        CountRecord(1, F(1, 10), 0, METHOD_GREEDY)
    with pytest.raises(DomainError):
        CountRecord(1, F(-1, 10), 1, METHOD_GREEDY)
    with pytest.raises(DomainError):
        CountRecord(1, F(1, 10), 1, "guesswork")


# === counting laws ============================================================

@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 3))
def test_exhaustive_count_shrinks_as_the_scale_grows(seed, n):
    m = random_pwa(random.Random(seed))
    points = [F(j, 10) for j in range(11)]
    counts = [
        count_separated_exhaustive(m, n, eps, points).count
        for eps in (F(1, 5), F(3, 10), F(2, 5))
    ]
    assert counts[0] >= counts[1] >= counts[2]


@settings(max_examples=40, deadline=None)
@given(seeds, st.fractions(min_value="1/5", max_value="3/5", max_denominator=20))
def test_exhaustive_count_grows_with_the_window(seed, eps):
    m = random_pwa(random.Random(seed))
    points = [F(j, 10) for j in range(11)]
    counts = [count_separated_exhaustive(m, n, eps, points).count for n in (1, 2, 3)]
    assert counts[0] <= counts[1] <= counts[2]


def test_greedy_counts_honor_the_same_laws_on_reference_maps(tent, identity):
    for m in (tent, identity):
        for n in (1, 2):
            a = count_separated_greedy(m, n, F(1, 5), F(1, 40)).count
            b = count_separated_greedy(m, n, F(2, 5), F(1, 40)).count
            assert a >= b
        for eps in (F(1, 5), F(2, 5)):
            a = count_separated_greedy(m, 1, eps, F(1, 40)).count
            b = count_separated_greedy(m, 2, eps, F(1, 40)).count
            assert a <= b


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(2, 3), st.integers(1, 2),
       st.fractions(min_value="2/5", max_value="4/5", max_denominator=20))
def test_separated_sets_survive_power_maps(seed, k, n, eps):
    # an (n,eps)-separated set for the k-th power map is (k*n,eps)-separated
    # for the map itself, so the exact counts are ordered
    m = random_pwa(random.Random(seed))
    points = twelve_grid()
    power = count_separated_exhaustive(iterate(m, k), n, eps, points).count
    direct = count_separated_exhaustive(m, k * n, eps, points).count
    assert power <= direct


def test_greedy_sits_between_exhaustive_bounds(tent):
    points = twelve_grid()
    for n, eps in [(1, F(2, 5)), (2, F(1, 2)), (3, F(4, 9))]:
        lower = count_separated_exhaustive(tent, n, 2 * eps, points).count
        mid = count_separated_greedy(tent, n, eps, F(1, 11)).count
        upper = count_separated_exhaustive(tent, n, eps, points).count
        assert lower <= mid <= upper


# Differential checks between the cylinder and exhaustive methods: depth-n
# representatives at pairwise d_n > eps form an (n, eps)-separated set, so the
# exact count over any point set that holds them is at least B^n.

def full_lap_zigzag(rng: random.Random, laps: int) -> PwaMap:
    """A map of ``laps`` affine laps, each onto all of [0, 1], up and down in
    turn, breaking on the 1/97 grid."""
    xs = [F(0), *(F(x, 97) for x in sorted(rng.sample(range(1, 97), laps - 1))), F(1)]
    first = rng.randint(0, 1)
    return PwaMap.from_nodes([(x, F((first + i) % 2)) for i, x in enumerate(xs)])


def with_extra_points(rng: random.Random, reps: list[Fraction]) -> list[Fraction]:
    """``reps`` and then points of the 1/97 grid, EXHAUSTIVE_POINT_CAP in all."""
    extra = sorted({F(rng.randint(0, 97), 97) for _ in range(20)} - set(reps))
    return reps + extra[:EXHAUSTIVE_POINT_CAP - len(reps)]


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(2, 14), st.integers(1, 3))
def test_exhaustive_count_over_full_lap_representatives_reaches_the_cylinder_count(
    seed, laps, n
):
    rng = random.Random(seed)
    m = full_lap_zigzag(rng, laps)
    view = full_lap_view(m)
    assert view.branch_count == laps
    n = min(n, max(k for k in (1, 2, 3) if laps**k <= EXHAUSTIVE_POINT_CAP))
    reps = [x for _, x in cylinder_representatives(view, n)]
    points = with_extra_points(rng, reps)
    least = min(dn_reference(m, x, y, n) for x, y in combinations(reps, 2))
    for eps in (least / 2, least * (1 - F(1, 10**6))):
        cylinders = count_cylinders(view, n, eps).count
        assert count_separated_exhaustive(m, n, eps, points).count >= cylinders
    # at the least distance itself two representatives are not separated
    assert count_separated_exhaustive(m, n, least, reps).count < laps**n


@pytest.mark.parametrize("beta,k,level,n", [
    (F(1, 4), 1, 0, 3), (F(1, 4), 1, 1, 1), (F(1, 3), 1, 0, 2), (F(1, 3), 1, 1, 1),
    (F(2, 5), 0, 0, 1), (F(5, 11), 0, 0, 1), (F(1, 2), 1, 0, 1),
])
def test_exhaustive_count_over_certified_representatives_reaches_the_cylinder_count(
    beta, k, level, n
):
    view = build_fbeta(plan_sequences(beta, k)).view(level)
    eps = view.separation_scale
    verify_cylinder_separation(view, n)
    reps = [x for _, x in cylinder_representatives(view, n)]
    points = with_extra_points(random.Random(level), reps)
    assert (count_separated_exhaustive(view.map, n, eps, points).count
            >= count_cylinders(view, n).count)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 2),
       st.fractions(min_value="1/4", max_value="3/4", max_denominator=16),
       st.fractions(min_value="1/8", max_value="1/2", max_denominator=16))
def test_affine_conjugation_rescales_counts_exactly(seed, n, lo, width):
    hi = lo + width
    if hi >= 1:
        hi = F(1)
    rng = random.Random(seed)
    m = random_boundary_fixed_pwa(rng)
    conjugated = conjugate_into_interval(m, lo, hi)
    lam = hi - lo
    points = sorted({F(rng.randint(0, 24), 24) for _ in range(8)})
    eps = F(1, 5)
    inner = count_separated_exhaustive(m, n, eps, points).count
    mapped = [lo + lam * x for x in points]
    outer = count_separated_exhaustive(conjugated, n, lam * eps, mapped).count
    assert inner == outer


# === report export ============================================================

def test_csv_layout(half_model):
    report = mdim_profile(
        [half_model.view(0), half_model.view(1)],
        [F(1, 58), F(1, 214948)], (1, 2), METHOD_CYLINDER,
    )
    lines = report_to_csv(report).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    # rows sorted by (epsilon, n): the smaller scale comes first
    assert lines[1].startswith("1/214948,1,464,cylinder-exact,,")
    assert lines[2].startswith("1/214948,2,215296,cylinder-exact,,")
    assert lines[3].startswith("1/58,1,8,cylinder-exact,,")
    assert lines[4].startswith("1/58,2,64,cylinder-exact,,")
    for line in lines[1:]:
        h_hat, ratio = line.split(",")[-2:]
        assert float(h_hat) > 0 and 0 <= float(ratio) <= 1


def test_csv_carries_grid_resolution(identity):
    report = mdim_profile(identity, [F(1, 10)], (1, 2), METHOD_GREEDY, F(1, 40))
    rows = report_to_csv(report).splitlines()[1:]
    assert all(row.split(",")[4] == "1/40" for row in rows)


def test_json_layout(identity):
    report = mdim_profile(identity, [F(1, 10)], (1, 2), METHOD_GREEDY, F(1, 40))
    doc = report_to_json(report)
    assert set(doc) == {"upper", "lower", "entries"}
    entry = doc["entries"][0]
    assert entry["epsilon"] == "1/10"
    assert entry["window"] == [1, 2]
    assert [r["n"] for r in entry["records"]] == [1, 2]


# === views text format ========================================================

def test_views_round_trip_drops_only_the_map(half_model):
    text = dump_views(half_model.views)
    loaded = load_views(text)
    assert len(loaded) == 2
    for original, copy in zip(half_model.views, loaded):
        assert copy.map is None
        assert (copy.core_lo, copy.core_hi) == (original.core_lo, original.core_hi)
        assert copy.branches == original.branches
        assert copy.separation_scale == original.separation_scale
        assert copy.label == original.label
    assert dump_views(loaded) == text


def test_views_format_is_geometry_only(half_model):
    text = dump_views([half_model.view(0)])
    first, second = text.splitlines()[:2]
    assert first == "markov-views v1"
    assert second == "view core 1/2:1/1 scale 1/58 label level 0"


def test_views_loader_rejects_malformed_documents():
    with pytest.raises(SerializationError):
        load_views("other-header v1\n")
    with pytest.raises(SerializationError, match="no branch lines"):
        load_views("markov-views v1\nview core 0/1:1/1 scale -\n")
    with pytest.raises(SerializationError, match="bad branch line"):
        load_views("markov-views v1\nview core 0/1:1/1 scale -\nbranch sideways 0/1:1/2\n")
    with pytest.raises(SerializationError, match="no views"):
        load_views("markov-views v1\n")
    with pytest.raises(SerializationError) as exc:
        load_views("markov-views v1\nview core 0/1:1/1\n")
    assert str(exc.value) == "bad view line: 'view core 0/1:1/1'"


def test_views_loader_rejects_an_empty_label():
    text = "markov-views v1\nview core 1/2:1/1 scale 1/58 label\nbranch up 1/2:3/4\n"
    with pytest.raises(SerializationError, match="bad view line"):
        load_views(text)
    with pytest.raises(SerializationError, match="bad view line"):
        load_views(text.replace(" label", " label   "))


def test_views_loader_refuses_branches_outside_the_core():
    text = "markov-views v1\nview core 1/2:1/1 scale 1/100\nbranch up 0:1/8\nbranch up 1/4:3/8\n"
    with pytest.raises(ContractError, match=r"^branch \[0, 1/8\] leaves the core \[1/2, 1\]$"):
        load_views(text)


view_labels = st.text(alphabet="ab 1/:-", max_size=8).map(str.strip)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(branch_layouts, st.none() | st.fractions(F(1, 100), F(99, 100)),
                          view_labels), min_size=1, max_size=4))
def test_views_files_round_trip(drawn):
    views = tuple(layout_view(*args) for args in drawn)
    assert load_views(dump_views(views)) == views


def test_views_loader_names_a_syntax_fault_before_any_premise_fault():
    # the first view breaks a premise (its gap 1/8 is not above the scale 1/4),
    # a later line is malformed: the file is read whole before a view is made
    body = ("view core 0:1 scale 1/4\nbranch up 0:1/4\nbranch up 3/8:1\n"
            "view core 0:1 scale -\nbranch up 0:1\n")
    with pytest.raises(ContractError, match="not above the declared separation scale 1/4"):
        load_views("markov-views v1\n" + body)
    with pytest.raises(SerializationError, match="^bad branch line: 'branch up 0:1 extra'$"):
        load_views("markov-views v1\n" + body.replace("branch up 0:1\n", "branch up 0:1 extra\n"))
    # a view without branch lines is named in file order, after an earlier premise fault
    with pytest.raises(ContractError, match="not above the declared separation scale 1/4"):
        load_views("markov-views v1\n" + body.replace("branch up 0:1\n", ""))
    with pytest.raises(SerializationError, match="^view '' has no branch lines$"):
        load_views("markov-views v1\n" + body.replace("scale 1/4", "scale 1/16")
                   .replace("branch up 0:1\n", ""))


@pytest.mark.parametrize("body", [
    "view core 0/1:1/1 scale -\nbranch up 2/1:3/1\n",
    "view core -1/2:1/1 scale -\nbranch up 0/1:1/2\n",
], ids=["branch", "core"])
def test_views_loader_rejects_domains_outside_the_unit_interval(body):
    with pytest.raises(SerializationError, match=r"outside \[0, 1\]"):
        load_views("markov-views v1\n" + body)
