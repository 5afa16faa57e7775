"""Crossing-lap detection on the interval and the planar baker model:
packing, geometry checks, certified separated families, and serialization."""
from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mdimlab.horseshoe
from conftest import (
    cylinder_interval, itinerary_point, laid_out_by_hand, plane_dn, prime_denominator_pwa,
    random_pwa, slab_of, stage_map, stage_orbit, value_at,
)
from mdimlab import (
    CheckResult,
    ContractError,
    DomainError,
    Horseshoe2DModel,
    PwaMap,
    ResourceError,
    SerializationError,
    VerificationError,
    build_model_2d,
    certificate_to_csv,
    constant_map,
    detect_1d,
    dump_model_2d,
    full_lap_view,
    load_model_2d,
    monotone_laps,
    separated_bound_2d,
    slab_view,
    verify_conditions,
)
from mdimlab.horseshoe import _orbit_rows, check_rep_cap_2d
from mdimlab.separation import _cylinder_rows, _integer_inverses

F = Fraction

UNIT = (F(0), F(1))


def reference_model():
    """N = 4 slabs on [-1/2, 1/2]^2 at scale 1/16, chained over two stages."""
    return build_model_2d(4, F(1, 2), F(1, 16), 2, width=F(1, 8))


# === interval tools ===========================================================

def test_monotone_laps_splits_at_direction_flips(tent):
    laps = monotone_laps(tent, UNIT)
    assert [(lap.lo, lap.hi, lap.increasing) for lap in laps] == [
        (F(0), F(1, 2), True), (F(1, 2), F(1), False),
    ]
    assert all((lap.img_lo, lap.img_hi) == (F(0), F(1)) for lap in laps)


def test_monotone_laps_attach_plateaus_to_the_running_lap():
    m = PwaMap.from_nodes([(F(0), F(0)), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1), F(0))])
    laps = monotone_laps(m, UNIT)
    assert [(lap.lo, lap.hi, lap.increasing) for lap in laps] == [
        (F(0), F(1, 2), True), (F(1, 2), F(1), False),
    ]


def reference_laps(m: PwaMap, lo: Fraction, hi: Fraction) -> list[tuple]:
    """Every node strictly inside [lo, hi] and both ends valued by ``value_at``,
    then grouped into runs by the sign of each step (a flat step joins the run)."""
    xs = [lo, *(x for x in m.xs if lo < x < hi), hi]
    ys = [value_at(m, x) for x in xs]
    runs, start, sign = [], 0, 0
    for i in range(1, len(xs)):
        step = ys[i] - ys[i - 1]
        s = (step > 0) - (step < 0)
        if s and sign and s != sign:
            runs.append((start, i - 1, sign))
            start = i - 1
        sign = s or sign
    runs.append((start, len(xs) - 1, sign))
    return [(xs[a], xs[b], d >= 0, min(ys[a], ys[b]), max(ys[a], ys[b])) for a, b, d in runs]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["plateaus", "small", "primes"]), st.data())
def test_monotone_laps_match_a_scan_of_every_node_in_the_window(seed, kind, data):
    # ends on nodes or off them; "plateaus" draws values from a 1/6 grid, so flat steps are common
    rng = random.Random(seed)
    m = {"plateaus": lambda: random_pwa(rng, 5, 6), "small": lambda: random_pwa(rng, 12),
         "primes": lambda: prime_denominator_pwa(rng, rng.randint(2, 9))}[kind]()
    ends = st.sampled_from(m.xs) | st.fractions(min_value=0, max_value=1, max_denominator=48)
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    assume(lo < hi)
    laps = monotone_laps(m, (lo, hi))
    assert [(lap.lo, lap.hi, lap.increasing, lap.img_lo, lap.img_hi) for lap in laps] \
        == reference_laps(m, lo, hi)


# === 1-D detection ============================================================

def test_detect_tent_finds_both_crossings(tent):
    report = detect_1d(tent, UNIT, UNIT, F(1, 8))
    assert report.count == 2
    assert report.min_separation == F(1, 2)
    assert report.margin == 0
    assert [lap.increasing for lap in report.laps] == [True, False]


def test_detect_identity_finds_a_single_crossing(identity):
    report = detect_1d(identity, UNIT, UNIT, F(1, 8))
    assert report.count == 1
    assert report.min_separation is None
    assert report.margin == 0


def test_detect_staircase_level_zero(half_model):
    core = (F(1, 2), F(1))
    report = detect_1d(half_model.map, core, core, F(1, 58))
    assert report.count == 15
    assert sum(lap.increasing for lap in report.laps) == 8
    assert report.min_separation == F(3, 116)
    assert report.min_separation > F(1, 58)
    assert report.margin == 0


def test_detect_with_a_margin_requirement(tent):
    report = detect_1d(tent, UNIT, (F(1, 4), F(3, 4)), F(1, 8), eta=F(1, 8))
    assert report.count == 2
    assert report.min_separation == F(1, 2)
    assert report.margin == F(1, 4)


def test_detect_reports_zero_when_the_margin_is_unreachable(tent):
    report = detect_1d(tent, UNIT, (F(1, 4), F(3, 4)), F(1, 8), eta=F(1, 3))
    assert report.count == 0
    assert report.min_separation is None
    assert report.margin is None


def test_detect_keeps_one_of_two_laps_exactly_epsilon_apart(tent):
    # the tent's laps [0, 1/2] and [1/2, 1] are exactly 1/2 apart, and
    # separation is strict: at 1/2 one lap is kept, just below it both are
    assert detect_1d(tent, UNIT, UNIT, F(1, 2)).count == 1
    report = detect_1d(tent, UNIT, UNIT, F(1, 2) - F(1, 10**12))
    assert report.count == 2 and report.min_separation == F(1, 2)


def hausdorff(a: tuple, b: tuple) -> Fraction:
    """max(|lo difference|, |hi difference|) of two laps' domains."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["small", "primes", "ints"]), st.data())
def test_detect_matches_a_brute_force_search_of_every_lap_family(seed, kind, data):
    # the crossing laps of the test's own lap scan, searched subset by subset,
    # largest first and in index order: the left-to-right sweep keeps the first
    # family found, and its least distance is the least over all of its pairs;
    # "ints" passes the window, scale and margin as int zeros and ones, as
    # full_lap_view's call does, and half the time the core [0, 1] too
    rng = random.Random(seed)
    m = prime_denominator_pwa(rng, rng.randint(2, 9)) if kind == "primes" else random_pwa(rng, 12)
    k = data.draw(st.integers(0, 23))                   # the core starts at k/24
    c_lo, c_hi = F(k, 24), F(k, 24) + data.draw(st.sampled_from((F(1, 96), F(1, 24), F(1, 4))))
    assume(c_hi <= 1)
    if kind == "ints":
        (lo, hi), eps, eta = (0, 1), 0, 0
        if data.draw(st.booleans()):
            c_lo, c_hi = 0, 1
    else:
        lo, hi = UNIT if data.draw(st.booleans()) else (
            F(data.draw(st.integers(0, k)), 24),
            F(data.draw(st.integers(math.ceil(24 * c_hi), 24)), 24))
        eps = data.draw(st.fractions(min_value=0, max_value=F(1, 4), max_denominator=24))
        eta = data.draw(st.sampled_from((F(0), F(1, 48))))
    crossing = [lap for lap in reference_laps(m, lo, hi)
                if lap[3] <= c_lo - eta and lap[4] >= c_hi + eta]
    family = next(list(pick) for size in range(len(crossing), -1, -1)
                  for pick in combinations(crossing, size)
                  if all(hausdorff(a, b) > eps for a, b in combinations(pick, 2)))
    report = detect_1d(m, (lo, hi), (c_lo, c_hi), eps, eta)
    assert [(lap.lo, lap.hi, lap.increasing, lap.img_lo, lap.img_hi)
            for lap in report.laps] == family
    assert report.count == len(family)
    assert report.min_separation == min(
        (hausdorff(a, b) for a, b in combinations(family, 2)), default=None)
    assert report.margin == min((min(c_lo - a[3], a[4] - c_hi) for a in family), default=None)


def test_detect_separation_prunes_adjacent_laps(half_model):
    # at a huge scale only one lap of the staircase core can be kept
    core = (F(1, 2), F(1))
    report = detect_1d(half_model.map, core, core, F(1, 2))
    assert report.count == 1


@pytest.mark.parametrize("window,text", [
    ((F(1, 2), F(1, 2)), "1/2:1/2"), ((F(-1, 4), F(1)), "-1/4:1/1"), ((F(0), F(5, 4)), "0/1:5/4"),
])
def test_monotone_laps_refuses_a_window_outside_the_unit_interval(tent, window, text):
    with pytest.raises(DomainError) as exc:
        monotone_laps(tent, window)
    assert str(exc.value) == f"window {text} is not a subinterval of [0, 1]"


def test_detect_validation(tent):
    with pytest.raises(DomainError, match="degenerate core"):
        detect_1d(tent, UNIT, (F(1, 2), F(1, 2)), F(1, 8))
    with pytest.raises(DomainError, match="inside"):
        detect_1d(tent, (F(1, 4), F(3, 4)), UNIT, F(1, 8))
    with pytest.raises(DomainError, match="eta"):
        detect_1d(tent, UNIT, UNIT, F(1, 8), eta=F(-1, 8))
    with pytest.raises(DomainError, match="epsilon"):
        detect_1d(tent, UNIT, UNIT, F(-1, 8))


# === 2-D model construction ===================================================

def test_build_reference_model_geometry():
    model = reference_model()
    assert model.width == F(1, 8)
    assert model.offsets == (F(-1, 2), F(-5, 24), F(1, 12), F(3, 8))
    assert model.orientations == (1, -1, 1, -1)
    # slabs tile flush against both edges with uniform gaps of 1/6
    assert model.offsets[0] == -model.delta
    assert model.offsets[-1] + model.width == model.delta
    for a, b in zip(model.offsets, model.offsets[1:]):
        assert b - (a + model.width) == F(1, 6)


def test_build_default_width_splits_the_slack():
    model = build_model_2d(2, F(1, 2), F(1, 8), 1)
    assert model.width == (2 * model.delta - 2 * model.epsilon) / 4
    assert verify_conditions(model).ok


def test_single_strip_needs_no_gap():
    model = build_model_2d(1, F(1, 2), F(1, 4), 1)
    assert model.width == 2 * model.delta
    summary = verify_conditions(model)
    assert summary.ok
    packing = next(c for c in summary.checks if c.name == "packing")
    assert "single strip" in packing.detail


def test_packing_rejections_name_the_inequality():
    def refusal(*args, **kwargs) -> str:
        with pytest.raises(ContractError) as exc:
            build_model_2d(*args, **kwargs)
        return str(exc.value)

    # N*epsilon >= 2*delta leaves the default width at or below 0
    assert refusal(16, F(1, 2), F(1, 16), 1) == (
        "layout refused: width-positive: width 0/1, square side 1/1")
    assert refusal(256, F(1), F(1, 16), 1) == (
        "layout refused: width-positive: width -7/256, square side 2/1")
    assert refusal(4, F(1, 2), F(1, 16), 1, width=F(1, 4)) == (
        "layout refused: packing: N*(width + epsilon) = 5/4 vs 2*delta = 1/1")
    assert refusal(4, F(1, 2), F(1, 16), 1, width=F(13, 64)) == (
        "layout refused: packing: N*(width + epsilon) = 17/16 vs 2*delta = 1/1")
    assert refusal(4, F(1, 2), F(1, 16), 1, width=F(0)) == (
        "layout refused: width-positive: width 0/1, square side 1/1")
    assert refusal(1, F(1, 2), F(1, 16), 1, width=F(9, 8)) == (
        "layout refused: width-positive: width 9/8, square side 1/1")


@pytest.mark.parametrize("N,width", [(4, F(3, 16)), (1, F(1))])
def test_packing_accepts_its_boundaries(N, width):
    # N*(width + epsilon) = 2*delta at N = 4 (gaps 1/12 > 1/16), and one slab filling the square
    model = build_model_2d(N, F(1, 2), F(1, 16), 1, width)
    assert verify_conditions(model).ok
    slab_view(model)


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=12),
    delta=st.fractions(min_value="1/16", max_value=2, max_denominator=16),
    eps=st.fractions(min_value="1/64", max_value=1, max_denominator=64),
    p=st.integers(min_value=1, max_value=3),
    share=st.none() | st.fractions(min_value="-1/4", max_value="3/2", max_denominator=32),
    per_slab=st.booleans(),
)
@example(N=4, delta=F(1, 2), eps=F(1, 16), p=1, share=F(3, 4), per_slab=True)     # width 3/16
@example(N=4, delta=F(1, 2), eps=F(1, 16), p=1, share=F(13, 16), per_slab=True)   # width 13/64
def test_build_refuses_by_the_first_failing_line_of_its_own_layout(N, delta, eps, p, share,
                                                                   per_slab):
    # the default width, or a share of the square's side or of its N-th part:
    # at or below 0, inside, or above 2*delta
    width = None if share is None else 2 * delta * share / (N if per_slab else 1)
    # the layout laid out by hand, whatever its width, and verify_conditions' six lines on it
    by_hand = laid_out_by_hand(N, delta, eps, p, width)
    failed = next((c for c in verify_conditions(by_hand).checks if not c.ok), None)
    try:
        model = build_model_2d(N, delta, eps, p, width)
    except ContractError as exc:
        assert failed is not None
        assert str(exc) == f"layout refused: {failed.name}: {failed.detail}"
    else:
        assert failed is None
        assert model == by_hand
        slab_view(model)


def test_integer_arguments_build_the_fraction_model():
    model = build_model_2d(2, 2, 1, 1)
    assert model == build_model_2d(2, F(2), F(1), 1)
    assert model.width == F(1, 2) and type(model.width) is Fraction
    assert build_model_2d(2, 2, 1, 1, width=1) == build_model_2d(2, F(2), F(1), 1, width=F(1))
    assert verify_conditions(model).ok
    assert separated_bound_2d(model, 1).min_pairwise == F(7, 2)


def test_branch_arithmetic_lands_in_the_strip():
    model = reference_model()
    for j in range(model.N):
        s_lo, s_hi = model.offsets[j], model.offsets[j] + model.width
        corners = [
            (x, y)
            for x in (-model.delta, model.delta)
            for y in (model.offsets[j], model.offsets[j] + model.width)
        ]
        for corner in corners:
            x1, y1 = stage_map(model, corner)
            assert s_lo <= x1 <= s_hi
            assert abs(y1) == model.delta            # corners land on the rim
    assert slab_of(model, F(0)) is None              # 0 falls in the gap above slab 1


@pytest.mark.parametrize("model", [reference_model(), build_model_2d(3, F(1), F(1, 10), 1)],
                         ids=["reference", "three-slabs"])
def test_branch_jacobian_determinant_is_the_orientation(model):
    # x shrinks by width/(2 delta) and y stretches by 2 delta/width, flipped
    # on a -1 branch: the determinants differ in sign, so no plane
    # homeomorphism restricts to the model.  The steps h stay inside slab j,
    # where the stage map is branch j.
    assert {-1, 1} <= set(model.orientations)
    h = model.width / 2
    for j, orientation in enumerate(model.orientations):
        corner = (-model.delta, model.offsets[j])
        x0, y0 = stage_map(model, corner)
        x1, y1 = stage_map(model, (corner[0] + h, corner[1]))
        x2, y2 = stage_map(model, (corner[0], corner[1] + h))
        assert (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0) == orientation * h * h


def test_slab_view_is_the_y_dynamics():
    model = dataclasses.replace(reference_model(), orientations=(-1, -1, 1, 1))
    view = slab_view(model)
    assert (view.core_lo, view.core_hi) == (-model.delta, model.delta)
    assert [(b.lo, b.hi, b.increasing) for b in view.branches] == [
        (off, off + model.width, o == 1) for off, o in zip(model.offsets, model.orientations)
    ]
    assert view.separation_scale == model.epsilon and view.map is None
    # every cylinder is the y-range whose stage orbit follows its itinerary:
    # both ends follow it, and its midpoint orbit is the one read off the view
    rows, den = _cylinder_rows(view, 3)
    rows = [[F(v, den) for v in row] for row in rows]
    assert len(rows) == model.N**3
    for itin, ys in zip(product(range(model.N), repeat=3), rows):
        for y in cylinder_interval(view, itin):
            orbit = stage_orbit(model, (F(0), y), 3)
            assert [slab_of(model, pos[1]) for pos in orbit] == list(itin)
        mid = itinerary_point(model, itin)
        assert [pos[1] for pos in stage_orbit(model, mid, 3)] == ys


@pytest.mark.parametrize("N,p,delta,epsilon,offsets,orientations,message", [
    (0, 1, F(1, 2), F(1, 16), (), (), "need N >= 1 and p >= 1, got N=0, p=1"),
    (1, 1, F(0), F(1, 16), (F(0),), (1,), "delta and epsilon must be positive"),
    (2, 1, F(1, 2), F(1, 16), (F(0),), (1, -1), "expected 2 offsets and orientations"),
    (2, 1, F(1, 2), F(1, 16), (F(-1, 2), F(0)), (1, 0), "orientation flags must be +1 or -1"),
], ids=["no-slabs", "no-square", "missing-offset", "zero-orientation"])
def test_a_model_built_directly_refuses_bad_geometry(N, p, delta, epsilon, offsets,
                                                     orientations, message):
    with pytest.raises(DomainError) as exc:
        Horseshoe2DModel(N, p, delta, epsilon, F(1, 8), offsets, orientations)
    assert str(exc.value) == message


@pytest.mark.parametrize("N,delta,message", [
    (0, F(1, 2), "need N >= 1 and p >= 1, got N=0, p=1"),
    (2, F(0), "delta and epsilon must be positive"),
])
def test_the_layout_refuses_no_slabs_and_no_square(N, delta, message):
    with pytest.raises(DomainError) as exc:
        build_model_2d(N, delta, F(1, 16), 1)
    assert str(exc.value) == message


def test_a_map_with_no_full_lap_has_no_lap_view():
    with pytest.raises(ContractError) as exc:
        full_lap_view(constant_map(F(1, 2)))
    assert str(exc.value) == (
        "map has no monotone lap crossing [0, 1]; the cylinder method needs full laps"
        " — use the greedy method instead")


# === geometry verification ====================================================

def test_verify_conditions_passes_for_the_reference_model():
    summary = verify_conditions(reference_model())
    assert summary.ok, summary.first_failure
    assert tuple(c.name for c in summary.checks) == (
        "width-positive", "packing", "slabs-inside-square",
        "slab-gaps", "strips-span-square", "coherence",
    )


def test_verify_conditions_catches_crowded_slabs():
    model = reference_model()
    crowded = dataclasses.replace(
        model, offsets=(F(-1, 2), F(-7, 16), model.offsets[2], model.offsets[3]),
    )
    summary = verify_conditions(crowded)
    failed = next(c for c in summary.checks if c.name == "slab-gaps")
    assert not failed.ok
    assert "slabs 0 and 1" in failed.detail


def test_slab_gaps_name_the_first_crowded_pair():
    # gaps 1/32, 7/16 and 1/32 at epsilon 1/16: the first and the last are crowded
    model = dataclasses.replace(reference_model(),
                                offsets=(F(-1, 2), F(-11, 32), F(7, 32), F(3, 8)))
    summary = verify_conditions(model)
    assert [c for c in summary.checks if not c.ok] == [
        CheckResult("slab-gaps", False, "slabs 0 and 1: gap 1/32 <= epsilon 1/16")]


@pytest.mark.parametrize("p,slab,offset,detail", [
    (1, 3, F(7, 16), "stage 0: slab 0 does not cross strip 3 of stage 0"),
    (2, 3, F(7, 16), "stage 0: slab 0 does not cross strip 3 of stage 1"),
    (3, 3, F(7, 16), "stage 0: slab 0 does not cross strip 3 of stage 1"),
    (2, 0, F(-9, 16), "stage 0: slab 0 does not cross strip 0 of stage 1"),
])
def test_verify_conditions_reports_the_first_uncrossed_pair(p, slab, offset, detail):
    # slab 3 pokes out of the top of the square, so strip 3 is too wide for
    # every slab; each stage has the same slabs, and stage 0 is named.  Slab 0
    # poking out of the bottom crosses no strip, its own first
    model = dataclasses.replace(reference_model(), p=p)
    offsets = list(model.offsets)
    offsets[slab] = offset
    summary = verify_conditions(dataclasses.replace(model, offsets=tuple(offsets)))
    failed = next(c for c in summary.checks if c.name == "coherence")
    assert not failed.ok
    assert failed.detail == detail
    assert summary.first_failure.detail == f"slab {slab} leaves the square"


@pytest.mark.parametrize("width", [F(0), F(-1, 8)])
def test_verify_conditions_does_not_map_strips_of_no_width(width):
    summary = verify_conditions(dataclasses.replace(reference_model(), width=width))
    checks = {c.name: c for c in summary.checks}
    assert summary.first_failure.name == "width-positive"
    assert not checks["strips-span-square"].ok
    assert checks["strips-span-square"].detail == (
        "not evaluated: the branch maps need a positive width")


def test_verify_conditions_catches_an_undersized_scale():
    model = reference_model()
    greedy_eps = dataclasses.replace(model, epsilon=F(1, 4))
    summary = verify_conditions(greedy_eps)
    assert not summary.ok


# === certified separated families ============================================

def test_certificate_counts_grow_as_a_power():
    model = reference_model()
    one = separated_bound_2d(model, 1)
    assert (one.count, one.steps) == (16, 2)
    assert one.min_pairwise == F(7, 24)
    assert one.min_pairwise > model.epsilon
    assert all(m is not None and m > model.epsilon for m in one.per_point_min)


def test_certificate_respects_the_representative_cap():
    model = reference_model()
    with pytest.raises(ResourceError, match="cap"):
        separated_bound_2d(model, 4)                 # 4**8 = 65536 representatives
    with pytest.raises(DomainError):
        separated_bound_2d(model, 0)


@pytest.mark.parametrize("N,p,ell,count", [
    (4, 1, 7, "16384"), (2, 1, 15000, "2**15000"), (2, 2, 7000, "2**14000"),
    (1000000, 1, 1, "1000000"),
])
def test_the_planar_cap_names_a_count_that_prints(N, p, ell, count):
    with pytest.raises(ResourceError) as err:
        check_rep_cap_2d(N, p, ell)
    assert str(err.value) == f"N**(p*ell) = {count} representatives exceed the cap 4096"


@pytest.mark.parametrize("N,p,ell", [(4, 1, 6), (4, 2, 3), (4096, 1, 1), (1, 1, 10**12)])
def test_the_planar_cap_holds_up_to_4096_representatives(N, p, ell):
    check_rep_cap_2d(N, p, ell)


@pytest.mark.parametrize("N,p,ell", [(0, 1, 10**12), (-3, 1, 10**12), (2, 1, -10**12), (2, -1, 5)])
def test_the_planar_cap_leaves_invalid_sizes_to_their_own_checks(N, p, ell):
    # the command line checks the cap before build_model_2d refuses a bad N
    # or p, so the check must not stall or raise on them; a depth below 1 is
    # the cap's own refusal
    if ell < 1:
        with pytest.raises(DomainError, match=f"^ell must be >= 1, got {ell}$"):
            check_rep_cap_2d(N, p, ell)
    else:
        check_rep_cap_2d(N, p, ell)


def test_certificate_refuses_a_deep_family_before_building_a_row(monkeypatch):
    monkeypatch.setattr(mdimlab.horseshoe, "_orbit_rows", None)
    model = build_model_2d(2, F(1, 2), F(1, 16), 1)
    with pytest.raises(ResourceError, match=r"^N\*\*\(p\*ell\) = 2\*\*15000 representatives"):
        separated_bound_2d(model, 15000)


def test_certificate_representatives_follow_their_itineraries():
    model = reference_model()
    cert = separated_bound_2d(model, 1)
    for itinerary, point in zip(cert.itineraries, cert.points):
        orbit = stage_orbit(model, point, cert.steps)
        assert tuple(slab_of(model, pos[1]) for pos in orbit) == itinerary


def test_single_strip_certificate_has_nothing_to_separate():
    model = build_model_2d(1, F(1, 2), F(1, 4), 2)
    cert = separated_bound_2d(model, 3)
    assert cert.count == 1
    assert cert.min_pairwise is None


def test_overlapping_slabs_are_caught_during_certification():
    model = reference_model()
    # two identical slabs: a stage orbit through slab 1 would resolve to slab 0
    broken = dataclasses.replace(
        model, offsets=(model.offsets[0], model.offsets[0],
                        model.offsets[2], model.offsets[3]),
    )
    with pytest.raises(VerificationError, match="overlap"):
        separated_bound_2d(broken, 1)


def test_collapsed_strips_are_caught_during_certification():
    broken = dataclasses.replace(reference_model(), width=F(0))
    assert not verify_conditions(broken).ok
    with pytest.raises(VerificationError, match="degenerate branch domain"):
        separated_bound_2d(broken, 1)


def test_disjoint_slabs_out_of_order_are_refused():
    model = reference_model()
    swapped = dataclasses.replace(
        model, offsets=(model.offsets[1], model.offsets[0]) + model.offsets[2:],
    )
    assert not verify_conditions(swapped).ok         # fails slab-gaps
    with pytest.raises(VerificationError, match="slab view refused"):
        separated_bound_2d(swapped, 1)


def test_slabs_leaving_the_square_are_refused():
    # a slab above the square sends cylinder midpoints out of their slabs
    model = reference_model()
    high = dataclasses.replace(model, offsets=model.offsets[:3] + (F(7, 16),))
    assert not verify_conditions(high).ok
    with pytest.raises(VerificationError, match=r"^slab view refused: branch \[7/16, 9/16\]"
                                                r" leaves the core \[-1/2, 1/2\]$"):
        separated_bound_2d(high, 1)


def test_representatives_exactly_epsilon_apart_are_not_separated():
    # at ell = 1 representatives 0 and 1 are exactly 7/24 apart in d_2, but
    # the slab gaps of 1/6 are below that scale, so the view refuses first
    model = dataclasses.replace(reference_model(), epsilon=F(7, 24))
    with pytest.raises(VerificationError) as info:
        separated_bound_2d(model, 1)
    assert str(info.value) == (
        "slab view refused: branch domain gap 1/6 not above the declared separation scale 7/24"
    )


def test_a_failed_certificate_names_the_first_close_slab_gap():
    # slab gaps 7/16 and 1/16: only the second is within 1/4
    model = build_model_2d(3, F(1, 2), F(1, 4), 1, width=F(1, 16))
    uneven = dataclasses.replace(model, offsets=(F(-1, 2), F(0), F(1, 8)))
    with pytest.raises(VerificationError) as info:
        separated_bound_2d(uneven, 1)
    assert str(info.value) == (
        "slab view refused: branch domain gap 1/16 not above the declared separation scale 1/4"
    )


def test_a_slab_gap_at_epsilon_is_refused_before_any_row_is_built(monkeypatch):
    # the reference slabs are 1/6 apart; at epsilon = 1/6 the family is not
    # certified, and 4**6 = 4,096 rows would be built for nothing
    model = dataclasses.replace(reference_model(), epsilon=F(1, 6))
    assert not verify_conditions(model).ok
    built = []
    monkeypatch.setattr(mdimlab.horseshoe, "_orbit_rows", lambda *args: built.append(args))
    with pytest.raises(VerificationError) as info:
        separated_bound_2d(model, 3)
    assert str(info.value) == (
        "slab view refused: branch domain gap 1/6 not above the declared separation scale 1/6"
    )
    assert built == []


def _slab_gaps(model):
    return [hi - lo - model.width for lo, hi in zip(model.offsets, model.offsets[1:])]


def _view_refusal(model, epsilon):
    """The slab view's refusal text at ``epsilon``: it names the first slab gap
    at or below the scale (the slabs here never overlap)."""
    gap = next(g for g in _slab_gaps(model) if g <= epsilon)
    return (f"slab view refused: branch domain gap {gap} not above the declared"
            f" separation scale {epsilon}")


@st.composite
def uneven_slabs(draw, n, p, delta, share):
    """Slabs of height 2*delta/n*share with uneven (possibly zero) gaps and
    mixed orientations; epsilon is a placeholder for the test to set."""
    width = 2 * delta / n * share
    weights = draw(st.lists(st.integers(0, 8), min_size=n + 1, max_size=n + 1))
    unit = (2 * delta - n * width) / (sum(weights) or 1)
    offsets = [-delta + weights[0] * unit]
    for g in weights[1:-1]:
        offsets.append(offsets[-1] + width + g * unit)
    orientations = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return Horseshoe2DModel(n, p, delta, width, width, tuple(offsets), tuple(orientations))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 2), st.integers(1, 2),
    st.fractions(min_value="1/8", max_value=2, max_denominator=16),
    st.fractions(min_value="1/64", max_value="63/64", max_denominator=64),
    st.integers(0, 10**6), st.data(),
)
def test_certificate_minima_match_a_brute_force_scan(n, p, ell, delta, share, pick, data):
    assume(n ** (p * ell) <= 64)
    uneven = data.draw(st.booleans())
    if uneven:
        model = data.draw(uneven_slabs(n, p, delta, share))
    else:
        model = build_model_2d(n, delta, 2 * delta / n * share, p)   # n*epsilon < 2*delta
    gaps = _slab_gaps(model)
    if uneven and not all(gaps):
        # touching slabs: no scale separates them, and the view says so
        with pytest.raises(VerificationError) as info:
            separated_bound_2d(model, ell)
        assert str(info.value) == _view_refusal(model, model.epsilon)
        return
    if uneven:
        # a scale below every gap, with n*epsilon <= the sum of the gaps, so
        # the layout passes verify_conditions
        model = dataclasses.replace(model, epsilon=min(gaps, default=F(1)) * max(n - 1, 1) / n)
    assert verify_conditions(model).ok
    steps = p * ell
    points = [itinerary_point(model, w) for w in product(range(n), repeat=steps)]
    orbits = [stage_orbit(model, point, steps) for point in points]
    brute = [
        min((plane_dn(mine, other) for j, other in enumerate(orbits) if j != i), default=None)
        for i, mine in enumerate(orbits)
    ]
    cert = separated_bound_2d(model, ell)
    assert list(cert.points) == points
    assert list(cert.per_point_min) == brute
    assert cert.min_pairwise == min((d for d in brute if d is not None), default=None)
    if cert.count > 1:
        # the view's proof, audited: the exact minimum is at least the least gap
        assert cert.min_pairwise >= min(gaps) > model.epsilon
        # so at a scale no smaller than some representative's minimum a slab
        # gap is at or below the scale, and the view refuses
        epsilon = brute[pick % cert.count]
        with pytest.raises(VerificationError) as info:
            separated_bound_2d(dataclasses.replace(model, epsilon=epsilon), ell)
        assert str(info.value) == _view_refusal(model, epsilon)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4),
    st.fractions(min_value="1/8", max_value=2, max_denominator=16),
    st.fractions(min_value="1/64", max_value="63/64", max_denominator=64), st.data(),
)
def test_rows_from_integer_x_steps_equal_rows_stepped_by_the_stage_map(n, steps, delta, share,
                                                                        data):
    # uneven_slabs draws mixed orientations, so the x step's dropped sign is covered
    assume(n**steps <= 256)
    model = data.draw(uneven_slabs(n, 1, delta, share))
    gaps = _slab_gaps(model)
    assume(all(gaps))                               # a scale below every gap exists
    _assert_rows_follow_the_stage_map(
        dataclasses.replace(model, epsilon=min(gaps, default=model.width) / 2), steps)


@pytest.mark.parametrize("n,steps", [(3, 1), (1, 1), (1, 4), (2, 5)])
def test_rows_without_an_x_entry_or_with_one_slab(n, steps):
    # depth 1 has no x entry; one slab fills the square, so x stays at 0
    _assert_rows_follow_the_stage_map(build_model_2d(n, F(1, 2), F(1, 16), 1), steps)


def _assert_rows_follow_the_stage_map(model, steps):
    """``_orbit_rows`` of the model's slab view are integers over D**steps, and
    row w is the stage orbit of (0, mid C(w)): x_1 ... x_{steps-1}, y_0 ...
    y_{steps-1}, visiting the slabs of w."""
    view = slab_view(model)
    itineraries, rows, den = _orbit_rows(view, steps)
    y_rows, y_den = _cylinder_rows(view, steps)
    assert itineraries == list(product(range(model.N), repeat=steps))
    assert len(y_rows) == len(rows) == model.N**steps
    assert den == _integer_inverses(view)[1]**steps
    assert all(type(v) is int for row in rows for v in row)
    for itin, y_row, row in zip(itineraries, y_rows, rows):
        orbit = stage_orbit(model, (F(0), F(y_row[0], y_den)), steps)
        assert [slab_of(model, y) for _, y in orbit] == list(itin)
        assert [F(v, den) for v in row] == [x for x, _ in orbit[1:]] + [y for _, y in orbit]


def test_certificate_ratio_examples():
    assert separated_bound_2d(build_model_2d(16, F(1), F(1, 16), 1), 1).ratio == pytest.approx(1.0)
    assert separated_bound_2d(reference_model(), 2).ratio == pytest.approx(0.5)
    assert separated_bound_2d(build_model_2d(1, F(1, 2), F(1, 4), 1), 3).ratio == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 64),
    st.fractions(min_value="1/8", max_value=4, max_denominator=32),
    st.fractions(min_value="1/256", max_value=2, max_denominator=512),
)
def test_packing_boundary_is_enforced(n, delta, epsilon):
    if n > 1 and n * epsilon >= 2 * delta:
        with pytest.raises(ContractError):
            build_model_2d(n, delta, epsilon, 1)
    else:
        # a single slab packs for any scale: it fills the square with no gaps
        model = build_model_2d(n, delta, epsilon, 1)
        assert verify_conditions(model).ok
        if n > 1:
            gap = model.offsets[1] - (model.offsets[0] + model.width)
            assert gap > epsilon


# === serialization ============================================================

def test_model_2d_round_trip():
    model = reference_model()
    text = dump_model_2d(model)
    assert load_model_2d(text) == model
    assert dump_model_2d(load_model_2d(text)) == text


def test_model_2d_loader_cross_checks_geometry():
    text = dump_model_2d(reference_model())
    with pytest.raises(SerializationError):
        load_model_2d(text.replace("horseshoe-2d v1", "horseshoe-3d v1"))
    tampered = text.replace("branch 1 slab", "branch 9 slab")
    with pytest.raises(SerializationError) as err:
        load_model_2d(tampered)
    assert str(err.value) == (
        "branch line 'branch 9 slab -5/24:-1/12 strip -5/24:-1/12 orient -' differs from the"
        " model its scalars rebuild: 'branch 1 slab -5/24:-1/12 strip -5/24:-1/12 orient -'")
    dropped = text.replace(text.splitlines()[-1] + "\n", "")
    with pytest.raises(SerializationError, match="^expected 4 branch lines, found 3$"):
        load_model_2d(dropped)


def test_model_2d_loader_counts_branch_lines_before_building():
    # a packable billion-slab geometry: the count is refused before any slab is built
    text = dump_model_2d(reference_model()).replace("N 4", "N 1000000000").replace(
        "epsilon 1/16", "epsilon 1/10000000000").replace("width 1/8", "width 1/10000000000")
    with pytest.raises(SerializationError, match="^expected 1000000000 branch lines, found 4$"):
        load_model_2d(text)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 12),
    st.fractions(min_value="1/8", max_value=2, max_denominator=16),
    st.fractions(min_value="1/64", max_value=1, max_denominator=64),
    st.integers(1, 3),
    st.one_of(st.none(), st.fractions(min_value="1/64", max_value=2, max_denominator=64)),
)
@example(1, F(1, 2), F(1, 4), 1, None)                 # one slab, default width
@example(1, F(1, 2), F(1, 4), 2, F(1, 3))              # one slab, explicit width
@example(3, F(1), F(1, 8), 1, None)                    # default width
@example(4, F(1, 2), F(1, 16), 2, F(1, 8))             # explicit width
def test_model_2d_round_trips_over_the_builder_parameters(n, delta, epsilon, p, width):
    try:
        model = build_model_2d(n, delta, epsilon, p, width)
    except ContractError:
        assume(False)
    text = dump_model_2d(model)
    assert load_model_2d(text) == model
    assert dump_model_2d(load_model_2d(text)) == text


def _flip_orientations(text: str) -> str:
    return text.replace("orient +", "orient ?").replace("orient -", "orient +").replace(
        "orient ?", "orient -")


def _uneven_offsets(text: str) -> str:
    # slab 1 and its strip 1/32 lower: gaps 1/6 -+ 1/32 stay above epsilon, so
    # the layout meets every packing premise and only the rebuild tells it apart
    return text.replace("slab -5/24:-1/12 strip -5/24:-1/12",
                        "slab -23/96:-11/96 strip -23/96:-11/96")


@pytest.mark.parametrize("edit,first", [
    (_flip_orientations, "branch 0 slab -1/2:-3/8 strip -1/2:-3/8 orient -"),
    (_uneven_offsets, "branch 1 slab -23/96:-11/96 strip -23/96:-11/96 orient -"),
], ids=["flipped-orientations", "uneven-offsets"])
def test_model_2d_loader_refuses_a_layout_the_builder_does_not_make(edit, first):
    text = dump_model_2d(reference_model())
    assert edit(text) != text
    with pytest.raises(SerializationError) as err:
        load_model_2d(edit(text))
    assert str(err.value).startswith(f"branch line {first!r} differs from the model")


@pytest.mark.parametrize("old,new", [
    ("N 4", "N x"),
    ("p 2", "p 2.5"),
    ("branch 1 slab", "branch one slab"),
    ("orient -", "orient *"),
])
def test_model_2d_loader_rejects_bad_integers_and_orientations(old, new):
    text = dump_model_2d(reference_model())
    assert old in text
    with pytest.raises(SerializationError):
        load_model_2d(text.replace(old, new, 1))


@pytest.mark.parametrize("extra,message", [
    ("foo 3", "unknown scalar 'foo'"),
    ("p 2", "repeated scalar 'p'"),
])
def test_model_2d_loader_rejects_unknown_and_repeated_scalars(extra, message):
    text = dump_model_2d(reference_model())
    with pytest.raises(SerializationError, match=message):
        load_model_2d(text + extra + "\n")


def test_certificate_csv_layout():
    cert = separated_bound_2d(reference_model(), 1)
    lines = certificate_to_csv(cert).splitlines()
    assert lines[0] == "itinerary,x,y,min_pairwise_dn"
    assert len(lines) == 17
    assert lines[1] == "0-0,0/1,-63/128,7/24"
    assert lines[2] == "0-1,0/1,-175/384,7/24"


def test_certificate_csv_blank_minimum_for_a_single_point():
    cert = separated_bound_2d(build_model_2d(1, F(1, 2), F(1, 4), 1), 1)
    lines = certificate_to_csv(cert).splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",")                    # no pairwise column for one point
