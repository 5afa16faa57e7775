"""Staircase plans and models: level constants, branch layout, gap dynamics,
predictions, verification checks, and plan/model round-trips."""
from __future__ import annotations

import dataclasses
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mdimlab.fbeta
from conftest import OVER_BUDGET_PLAN, value_at
from mdimlab import (
    CheckResult,
    ContractError,
    DomainError,
    FBetaModel,
    FBetaPlan,
    MarkovBranch,
    MarkovView,
    PwaMap,
    ResourceError,
    SerializationError,
    build_fbeta,
    dump_model,
    dump_plan,
    dump_views,
    eval_map,
    identity_map,
    load_model,
    load_plan,
    orbit,
    plan_sequences,
    predicted_count,
    verify_model,
)
from mdimlab.fbeta import BranchEntry, assemble_fbeta, level_views
from mdimlab.pwa import DEFAULT_NODE_BUDGET
from mdimlab.rational import floor_pow
from mdimlab.reporting import first

F = Fraction

EXPECTED_CHECKS = (
    "endpoints-fixed", "branches-onto-core", "branch-gaps", "gap-dynamics",
    "tail-invariant", "level-range", "cylinder-count", "ratio-window",
    "separation-certificate",
)


# === plans ====================================================================

def test_plan_one_half_level_zero(half_plan):
    lv = half_plan.level(0)
    assert (lv.a_even, lv.a_odd) == (F(1), F(1, 2))
    assert lv.gamma == F(1, 2)
    assert lv.ell == 29
    assert lv.i_sel == 7
    assert lv.eps == F(1, 58)
    assert lv.b == F(15, 58)


def test_plan_one_half_level_one(half_plan):
    lv = half_plan.level(1)
    assert (lv.a_even, lv.a_odd) == (F(1, 58), F(1, 116))
    assert lv.ell == 1853
    assert lv.i_sel == 463
    assert lv.eps == F(1, 214948)


def test_plan_exponent_zero_minimizes_the_layout():
    plan = plan_sequences(F(0), 1)
    assert [(lv.ell, lv.i_sel, lv.eps) for lv in plan.levels] == [
        (5, 1, F(1, 10)), (7, 1, F(1, 140)),
    ]


def test_plan_level_table_recursion(half_plan):
    a_values = [F(1), F(1, 2)]
    for lv in half_plan.levels:
        a_values += [lv.eps, lv.eps / 2]
    assert all(a > b for a, b in zip(a_values, a_values[1:]))
    for lv in half_plan.levels:
        assert lv.ell % 2 == 1
        assert lv.i_sel == floor_pow(F(lv.ell) / lv.gamma, half_plan.beta)
        assert 4 * lv.i_sel + 1 <= lv.ell
        assert lv.eps == lv.gamma / lv.ell
        assert lv.b == (lv.eps + lv.a_odd) / 2


PLAN_ARGS = (st.fractions(min_value=0, max_value=1, max_denominator=12), st.integers(0, 2),
             st.fractions(min_value="1/16", max_value="15/16", max_denominator=16))


@settings(max_examples=60, deadline=None)
@given(*PLAN_ARGS)
def test_every_planned_gap_attractor_is_its_gap_midpoint(beta, K, seed_a1):
    # verify_model's gap-dynamics check rests on this: an orbit whose distance
    # to the midpoint never grows cannot leave the gap
    try:
        plan = plan_sequences(beta, K, seed_a1, beta == 1, DEFAULT_NODE_BUDGET)
    except (ResourceError, ContractError):
        assume(False)
    for lv in plan.levels:
        assert lv.b == (lv.eps + lv.a_odd) / 2
        assert lv.eps < lv.b < lv.a_odd


@settings(max_examples=200, deadline=None)
@given(*PLAN_ARGS)
def test_every_planned_staircase_assembles_and_verifies(beta, K, seed_a1):
    # assembly appends each shared boundary node once and checks no order of
    # its own: a plan the planner returns must give strictly increasing nodes
    try:
        plan = plan_sequences(beta, K, seed_a1, beta == 1, 20_000)
    except (ResourceError, ContractError):
        assume(False)
    model = build_fbeta(plan)
    assert verify_model(model).ok
    assert all(a < b for a, b in zip(model.map.xs, model.map.xs[1:]))


@pytest.mark.parametrize("args,message", [
    ((F(0), 0, F(1, 16)), "eps = 3/16 >= a_odd = 1/16"),
    ((F(1), 0, F(1, 4), True), "eps = 1/4 >= a_odd = 1/4"),
])
def test_a_seed_leaving_no_gap_below_level_0_is_refused_when_planned(args, message):
    with pytest.raises(ContractError, match=f"^level 0 leaves no gap below its core: {message}$"):
        plan_sequences(*args)


@pytest.mark.parametrize("beta", [F(3, 10), F(1, 2), F(7, 10)])
def test_plan_piece_counts_are_minimal_feasible(beta):
    plan = plan_sequences(beta, 1)
    ell_prev = 1
    for lv in plan.levels:
        assert lv.ell > ell_prev
        smaller = lv.ell - 2
        if smaller > ell_prev:
            assert 4 * floor_pow(F(smaller) / lv.gamma, beta) + 1 > smaller
        ell_prev = lv.ell


def test_plan_validation():
    with pytest.raises(DomainError):
        plan_sequences(F(3, 2), 1)
    with pytest.raises(DomainError):
        plan_sequences(F(1, 2), -1)
    with pytest.raises(DomainError):
        plan_sequences(F(1, 2), 1, seed_a1=F(1))
    with pytest.raises(ContractError, match="dense variant"):
        plan_sequences(F(1), 1)
    with pytest.raises(ContractError):
        plan_sequences(F(1, 2), 1, variant_full=True)


def test_dense_variant_uses_every_subinterval():
    plan = plan_sequences(F(1), 1, variant_full=True)
    assert [(lv.ell, lv.eps) for lv in plan.levels] == [(3, F(1, 6)), (5, F(1, 60))]
    assert plan.branch_count(0) == 3
    assert plan.branch_count(1) == 5
    assert predicted_count(plan, 0, 4) == 3**4


# === predictions ==============================================================

def test_predicted_count_examples(half_plan):
    assert predicted_count(half_plan, 0, 3) == 343          # floor(sqrt(58)) == 7
    assert predicted_count(half_plan, 0, 0) == 1
    assert predicted_count(half_plan, 1, 1) == 463    # floor(sqrt(214948))


def test_predicted_count_validation(half_plan):
    with pytest.raises(DomainError):
        predicted_count(half_plan, 0, -1)
    with pytest.raises(DomainError):
        predicted_count(half_plan, 5, 1)


# === built models =============================================================

# beta = 0 and 1/20 at K = 2 plan ell 7 and 9 at levels 1 and 2, past the
# 4*i_sel + 1 = 5 subintervals the branches and excursions use, so those
# levels end with the wide excursion to the core top
WIDE_EXCURSION_PLANS = {"beta-0": (F(0), 2), "beta-1/20": (F(1, 20), 2)}


@pytest.fixture(scope="module", params=["beta-1/2", *WIDE_EXCURSION_PLANS])
def built_model(request, half_model):
    if request.param == "beta-1/2":
        return half_model
    return build_fbeta(plan_sequences(*WIDE_EXCURSION_PLANS[request.param]))


@pytest.mark.parametrize("key", WIDE_EXCURSION_PLANS)
def test_the_wide_excursion_peaks_in_the_gap_above(key):
    model = build_fbeta(plan_sequences(*WIDE_EXCURSION_PLANS[key]))
    assert [(lv.ell, lv.i_sel) for lv in model.plan.levels] == [(5, 1), (7, 1), (9, 1)]
    for lv in model.plan.levels[1:]:
        limit = 4 * lv.i_sel + 1
        start = lv.a_odd + limit * lv.eps              # the end of the last full branch
        peak = (start + lv.a_even) / 2
        top_peak = model.plan.levels[lv.k - 1].b
        for x, want in ((start, lv.a_even), (peak, top_peak), (lv.a_even, lv.a_even),
                        ((start + peak) / 2, (lv.a_even + top_peak) / 2)):
            assert value_at(model.map, x) == eval_map(model.map, x) == want
    assert all(view.map is model.map for view in model.views)


# === the layout against a per-position restatement ===========================

def reference_staircase(plan: FBetaPlan) -> tuple[PwaMap, list[BranchEntry]]:
    """The staircase with each level's layout restated position by position:
    the residue r = (j - 1) % 4 picks an up branch, an excursion up into the gap
    above, a down branch or an excursion down into G_k up to 4*i_k + 1, then one
    wide excursion to the core top; the dense variant alternates branches."""
    tail = plan.tail_end
    nodes, table = [(F(0), F(0)), (tail, tail)], []
    for k in range(plan.K, -1, -1):
        lv = plan.levels[k]
        mdimlab.fbeta._push_gap(nodes, lv.eps, lv.a_odd, lv.b)
        top_peak = plan.levels[k - 1].b if k else F(1)
        c = [lv.a_odd + j * lv.eps for j in range(lv.ell + 1)]
        if plan.variant_full:
            for j in range(1, lv.ell + 1):
                nodes.append((c[j], lv.a_even if j % 2 else lv.a_odd))
                table.append(BranchEntry(k, j, j % 2 == 1, c[j - 1], c[j]))
            continue
        limit = 4 * lv.i_sel + 1
        for j in range(1, limit + 1):
            r = (j - 1) % 4
            if r in (0, 2):
                nodes.append((c[j], lv.a_even if r == 0 else lv.a_odd))
                table.append(BranchEntry(k, j, r == 0, c[j - 1], c[j]))
            else:
                peak, end = (top_peak, lv.a_even) if r == 1 else (lv.b, lv.a_odd)
                nodes += [((c[j - 1] + c[j]) / 2, peak), (c[j], end)]
        if lv.ell > limit:
            nodes += [((c[limit] + c[lv.ell]) / 2, top_peak), (c[lv.ell], lv.a_even)]
    return PwaMap.from_nodes(nodes), table


def reference_views(plan: FBetaPlan, m: PwaMap | None) -> list[MarkovView]:
    """Each level's view restated: the increasing domains [c_{4i}, c_{4i+1}] at
    scale eps, or every subinterval, alternately up and down, with no scale."""
    views = []
    for lv in plan.levels:
        c = [lv.a_odd + j * lv.eps for j in range(lv.ell + 1)]
        if plan.variant_full:
            branches = [MarkovBranch(c[j - 1], c[j], j % 2 == 1) for j in range(1, lv.ell + 1)]
        else:
            branches = [MarkovBranch(c[4 * i], c[4 * i + 1], True) for i in range(lv.i_sel + 1)]
        views.append(MarkovView(lv.a_odd, lv.a_even, tuple(branches),
                                None if plan.variant_full else lv.eps, m, label=f"level {lv.k}"))
    return views


# beta = 7/10 plans only its level 0 under the default node budget
LAYOUT_PLANS = [
    *(pytest.param(F(beta), K, F(seed), False, id=f"{beta}-K{K}-a1={seed}")
      for beta in ("0", "1/20", "1/3", "4/11", "5/11", "1/2", "7/10") for K in (0, 1)
      for seed in ("1/2", "1/3", "2/3") if (beta, K) != ("7/10", 1)),
    *(pytest.param(F(1), K, F(1, 2), True, id=f"1-K{K}-full") for K in (0, 1, 2)),
]


@pytest.mark.parametrize("beta, K, seed, full", LAYOUT_PLANS)
def test_the_layout_matches_its_per_position_restatement(beta, K, seed, full):
    plan = plan_sequences(beta, K, seed, full)
    m, table = assemble_fbeta(plan)
    want_map, want_table = reference_staircase(plan)
    assert (m.xs, m.ys) == (want_map.xs, want_map.ys)
    assert table == tuple(want_table)
    for with_map in (None, m):
        views = level_views(plan, with_map)
        assert dump_views(views) == dump_views(reference_views(plan, with_map))
        assert all(view.map is with_map for view in views)


@pytest.mark.parametrize("k", [-1, 2])
def test_model_view_refuses_a_level_out_of_range(half_model, k):
    with pytest.raises(DomainError, match=rf"^level {k} outside 0..1$"):
        half_model.view(k)


def test_model_fixes_the_endpoints(half_model):
    assert eval_map(half_model.map, F(0)) == 0
    assert eval_map(half_model.map, F(1)) == 1


def test_model_branch_domains_and_gaps(half_model):
    lv = half_model.plan.level(0)
    ups = [e for e in half_model.branch_table if e.level == 0 and e.increasing]
    assert len(ups) == 8
    assert [e.j for e in ups] == [1 + 4 * i for i in range(8)]
    for a, b in zip(ups, ups[1:]):
        assert b.lo - a.hi == 3 * lv.eps
    for e in ups:
        assert eval_map(half_model.map, e.lo) == lv.a_odd
        assert eval_map(half_model.map, e.hi) == lv.a_even


def test_model_decreasing_branches_are_onto_too(half_model):
    lv = half_model.plan.level(0)
    downs = [e for e in half_model.branch_table if e.level == 0 and not e.increasing]
    assert len(downs) == 7
    for e in downs:
        assert eval_map(half_model.map, e.lo) == lv.a_even
        assert eval_map(half_model.map, e.hi) == lv.a_odd


def test_gap_attractor_is_fixed_and_pulls_inward(half_model):
    b0 = half_model.plan.level(0).b
    assert eval_map(half_model.map, b0) == b0
    g_l, g_r = half_model.plan.level(0).eps, half_model.plan.level(0).a_odd
    quarter = g_r - (g_r - b0) / 4
    image = eval_map(half_model.map, quarter)
    assert b0 < image < quarter
    left_quarter = g_l + (b0 - g_l) / 4
    image = eval_map(half_model.map, left_quarter)
    assert left_quarter < image <= b0


def test_gap_orbit_converges_monotonically(half_model):
    lv = half_model.plan.level(0)
    x = lv.a_odd - (lv.a_odd - lv.b) / 4
    distances = [abs(p - lv.b) for p in orbit(half_model.map, x, 200)]
    landed = False
    for previous, current in zip(distances, distances[1:]):
        if landed:
            assert current == 0
        elif current == 0:
            landed = True
        else:
            assert current < previous
    assert landed


def test_gap_orbits_never_leave_their_gap(half_model):
    lv = half_model.plan.level(0)
    for x in (lv.eps * F(3, 2), lv.b + F(1, 100), lv.a_odd - F(1, 1000)):
        for point in orbit(half_model.map, x, 50):
            assert lv.eps <= point <= lv.a_odd


def test_tail_is_the_identity(half_model):
    tail = half_model.plan.tail_end
    assert eval_map(half_model.map, tail / 2) == tail / 2
    assert orbit(half_model.map, tail / 2, 10) == [tail / 2] * 10


def test_level_values_stay_in_range(half_model):
    for lv in half_model.plan.levels:
        hi_bound = half_model.plan.levels[lv.k - 1].a_odd if lv.k else F(1)
        step = max(1, lv.ell // 50)
        for j in range(1, lv.ell + 1, step):
            mid = lv.a_odd + (2 * j - 1) * lv.eps / 2
            assert lv.eps <= eval_map(half_model.map, mid) <= hi_bound


def test_views_expose_the_certified_family(half_model):
    for k, (count, eps) in enumerate([(8, F(1, 58)), (464, F(1, 214948))]):
        view = half_model.view(k)
        assert view.branch_count == count
        assert view.separation_scale == eps
        assert view.label == f"level {k}"
        assert (view.core_lo, view.core_hi) == (
            half_model.plan.level(k).a_odd, half_model.plan.level(k).a_even,
        )


def test_cylinder_count_beats_the_prediction(half_model):
    from mdimlab import count_cylinders

    assert count_cylinders(half_model.view(0), 2).count == 64
    assert predicted_count(half_model.plan, 0, 2) == 49


def test_ratio_window_per_level(half_model):
    for lv in half_model.plan.levels:
        ratio = math.log(half_model.plan.branch_count(lv.k)) / abs(math.log(lv.eps))
        delta = (1 + abs(math.log(lv.gamma))) / abs(math.log(lv.eps))
        assert abs(ratio - 0.5) <= delta


def test_build_respects_the_node_budget():
    with pytest.raises(ResourceError, match="budget"):
        build_fbeta(plan_sequences(F(1, 2), 2))


def test_planning_under_a_budget_stops_at_the_first_level_that_cannot_fit():
    # a budget that fits plans the same levels as no budget at all
    assert plan_sequences(F(5, 11), 1, node_budget=10**6) == plan_sequences(F(5, 11), 1)
    with pytest.raises(ResourceError, match="by level 2, over the budget of 1000000"):
        plan_sequences(F(1, 2), 2, node_budget=10**6)
    # the dense variant: 2 + (2*3 + 6) + (2*5 + 6) = 30 nodes for two levels
    assert plan_sequences(F(1), 1, variant_full=True, node_budget=30).K == 1
    with pytest.raises(ResourceError, match="at least 30 nodes by level 1, over the budget of 29"):
        plan_sequences(F(1), 1, variant_full=True, node_budget=29)


def test_plan_loads_are_planned_under_the_default_node_budget():
    with pytest.raises(ResourceError, match="needs at least 1048582 nodes by level 0"):
        load_plan(OVER_BUDGET_PLAN)


def test_dense_variant_builds_and_verifies():
    model = build_fbeta(plan_sequences(F(1), 1, variant_full=True))
    summary = verify_model(model)
    assert summary.ok, summary.first_failure
    assert eval_map(model.map, F(1)) == 1
    assert model.view(0).separation_scale is None      # touching branches


# === verification =============================================================

def test_verify_model_passes_and_names_every_check(built_model):
    summary = verify_model(built_model)
    assert summary.ok, summary.first_failure
    assert summary.first_failure is None
    assert tuple(c.name for c in summary.checks) == EXPECTED_CHECKS


def test_separation_certificate_names_the_certified_and_the_audited_levels(half_model):
    # level 0 has 8 branches (audited at n = 2), level 1 has 464 (at n = 1)
    assert verify_model(half_model).checks[-1] == CheckResult(
        "separation-certificate", True,
        "level 0, level 1 certified by the view premises at every n;"
        " d_n audit above the scale at level 0 n=2, level 1 n=1")
    dense = build_fbeta(plan_sequences(F(1), 1, variant_full=True))
    assert verify_model(dense).checks[-1] == CheckResult(
        "separation-certificate", True, "level 0, level 1 uncertified: no separation scale")


def test_separation_audit_still_bites(half_model, monkeypatch):
    # an audit minimum at the scale itself fails the check, naming the level
    monkeypatch.setattr(mdimlab.fbeta, "verify_cylinder_separation",
                        lambda view, n: view.separation_scale)
    summary = verify_model(half_model)
    assert summary.first_failure == CheckResult(
        "separation-certificate", False, "level 0: d_2 audit minimum 1/58 <= scale 1/58")
    assert [c.name for c in summary.checks] == list(EXPECTED_CHECKS)


def test_verify_model_catches_a_wrong_map(half_model):
    broken = FBetaModel(
        half_model.plan, identity_map(), half_model.branch_table, half_model.views,
    )
    summary = verify_model(broken)
    assert not summary.ok
    assert summary.first_failure.name == "branches-onto-core"


def edited_map(m: PwaMap, nodes: dict) -> PwaMap:
    """``m`` with the given nodes set (x -> y), added where x is not a node."""
    return PwaMap.from_nodes(sorted({**dict(m.nodes()), **nodes}.items()))


# hand-broken half_model maps: the failing check and its exact detail text
# (level 0: core [1/2, 1], eps 1/58, gap [1/58, 1/2] around b = 15/58)
BROKEN_MAPS = {
    # the increasing branch [53/58, 27/29] ends at 99/100 instead of the core top
    "one-branch-misses": ({F(27, 29): F(99, 100)}, "branches-onto-core",
                          "level 0 j=25 misses the core endpoints"),
    # ... and the first branch of level 1 too, which comes first in the table
    "first-branch-named": ({F(27, 29): F(99, 100), F(927, 107474): F(1, 59)},
                           "branches-onto-core", "level 1 j=1 misses the core endpoints"),
    # the midpoint of level 0's first subinterval drops below the gap under it
    "level-0-escapes": ({F(59, 116): F(0)}, "level-range", "level 0 j=1: value 0 escapes"),
    # level 1 samples every 28th subinterval; j=29 jumps above the gap over it
    "level-1-escapes": ({F(1, 116) + F(57, 2 * 214948): F(1)}, "level-range",
                        "level 1 j=29: value 1 escapes"),
    "gap-midpoint-moves": ({F(15, 58): F(8, 29)}, "gap-dynamics", "level 0: b=15/58 not fixed"),
    # the right quarter-point 51/116 goes to 11/29, which is made fixed
    "gap-orbit-stalls": ({F(15, 58): F(15, 58), F(11, 29): F(11, 29), F(51, 116): F(11, 29)},
                         "gap-dynamics",
                         "level 0: gap distance stalled at 7/58"),
}


@pytest.mark.parametrize("key", BROKEN_MAPS)
def test_verify_model_names_the_broken_promise(half_model, key):
    nodes, name, detail = BROKEN_MAPS[key]
    broken = FBetaModel(half_model.plan, edited_map(half_model.map, nodes),
                        half_model.branch_table, half_model.views)
    summary = verify_model(broken)
    assert summary.first_failure == CheckResult(name, False, detail)
    assert [c.name for c in summary.checks] == list(EXPECTED_CHECKS)


def test_a_check_names_its_first_failure_and_draws_nothing_after_it():
    drawn = []

    def failures():
        for detail in ("first", "second"):
            drawn.append(detail)
            yield detail
    assert first("demo", "all fine", failures()) == CheckResult("demo", False, "first")
    assert drawn == ["first"]
    assert first("demo", "all fine", iter(())) == CheckResult("demo", True, "all fine")


def test_failed_count_and_ratio_checks_name_their_first_level(half_model):
    # one branch at both levels: each level fails both checks, and level 0 is named
    plan = dataclasses.replace(half_model.plan, levels=tuple(
        dataclasses.replace(lv, i_sel=0) for lv in half_model.plan.levels))
    checks = verify_model(dataclasses.replace(half_model, plan=plan)).checks
    assert [c for c in checks if not c.ok] == [
        CheckResult("cylinder-count", False, "level 0: 1^2 < prediction"),
        CheckResult("ratio-window", False, "level 0: ratio 0.000000 outside beta ± 0.416986"),
    ]


def test_a_failed_branch_gap_check_names_the_first_gap(half_model):
    # level 0's increasing branches j=5 and j=13 start 10**-6 late, which
    # widens the gaps after j=1 and after j=9 (and moves both off the core)
    table = tuple(dataclasses.replace(e, lo=e.lo + F(1, 10**6))
                  if e.level == 0 and e.j in (5, 13) else e for e in half_model.branch_table)
    checks = verify_model(dataclasses.replace(half_model, branch_table=table)).checks
    assert [c for c in checks if not c.ok] == [
        CheckResult("branches-onto-core", False, "level 0 j=5 misses the core endpoints"),
        CheckResult("branch-gaps", False, "level 0: gap 1500029/29000000 after j=1"),
    ]


# === serialization ============================================================

def test_plan_round_trip(half_plan):
    assert load_plan(dump_plan(half_plan)) == half_plan


def test_plan_loader_rederives_and_cross_checks(half_plan):
    text = dump_plan(half_plan)
    tampered = text.replace("ell=29", "ell=31")
    with pytest.raises(SerializationError, match="does not match"):
        load_plan(tampered)
    with pytest.raises(SerializationError):
        load_plan("wrong-header v1\n")


PLAN_LEVEL_EDITS = {
    "level-1-copies-level-0": lambda lines: [lines[5], lines[5]],
    "levels-swapped": lambda lines: [lines[6], lines[5]],
}


@pytest.mark.parametrize("edit", PLAN_LEVEL_EDITS.values(), ids=PLAN_LEVEL_EDITS.keys())
def test_plan_loader_compares_the_level_lines_in_order(half_plan, edit):
    lines = dump_plan(half_plan).splitlines()
    assert lines[5].startswith("level 0:") and len(lines) == 7
    tampered = "\n".join(lines[:5] + edit(lines)) + "\n"
    with pytest.raises(SerializationError, match="does not match the plan rule"):
        load_plan(tampered)


LEVEL_0 = "level 0: a_even=1/1 a_odd=1/2 ell=29 i=7 eps=1/58 b=15/58"
LEVEL_1 = "level 1: a_even=1/58 a_odd=1/116 ell=1853 i=463 eps=1/214948 b=927/214948"


@pytest.mark.parametrize("edit,message", [
    (lambda t: t.replace(LEVEL_1 + "\n", ""), "expected 2 level lines, found 1"),
    (lambda t: t + LEVEL_1 + "\n", "expected 2 level lines, found 3"),
    (lambda t: t.replace("ell=29", "ell=31"), "stored level line does not match the plan rule: "
     "'level 0: a_even=1/1 a_odd=1/2 ell=31 i=7 eps=1/58 b=15/58'"),
], ids=["one-level-line-too-few", "one-level-line-too-many", "tampered-level-line"])
def test_plan_loader_refusals_name_the_count_or_the_first_differing_line(half_plan, edit,
                                                                         message):
    text = dump_plan(half_plan)
    assert text.endswith(f"{LEVEL_0}\n{LEVEL_1}\n")
    with pytest.raises(SerializationError) as err:
        load_plan(edit(text))
    assert str(err.value) == message


def test_model_round_trip(built_model):
    text = dump_model(built_model)
    loaded = load_model(text)
    assert loaded == built_model
    assert dump_model(loaded) == text


def test_model_loader_requires_all_sections(half_model):
    text = dump_model(half_model)
    headless = text.replace("[branches]", "[other]")
    with pytest.raises(SerializationError, match=r"\[branches\]"):
        load_model(headless)
    with pytest.raises(SerializationError) as exc:
        load_model("fbeta-model v1\n[map]\n")
    assert str(exc.value) == "model file has no [plan] section after its header"


def _move_a_map_node(text: str) -> str:
    lines = text.splitlines(keepends=True)
    i = lines.index("[map]\n") + 3                     # past the header and the node at 0
    x, y = lines[i].split()
    lines[i] = f"{x} {F(y) / 2}\n"
    return "".join(lines)


MODEL_EDITS = {
    "flipped-dir": lambda t: t.replace("dir=up", "dir=down", 1),
    "dropped-branch-line": lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n",
    "moved-map-node": _move_a_map_node,
    "token-without-equals": lambda t: t.replace(" dir=up", " dir up", 1),
    "missing-dom": lambda t: re.sub(r" dom=\S+", "", t, count=1),
}


@pytest.mark.parametrize("edit", MODEL_EDITS.values(), ids=MODEL_EDITS.keys())
def test_model_loader_rejects_what_the_plan_does_not_rebuild(half_model, edit):
    text = dump_model(half_model)
    assert edit(text) != text
    with pytest.raises(SerializationError, match="differs from the model its plan rebuilds"):
        load_model(edit(text))


FIRST_UP = "level=1 j=1 dir=up dom=1/116:927/107474"
LAST_BRANCH = "level=0 j=29 dir=up dom=57/58:1/1"
EXTRA_BRANCH = "level=0 j=31 dir=up dom=0/1:1/1"


@pytest.mark.parametrize("edit,have,want", [
    (lambda t: t.replace("dir=up", "dir=down", 1), FIRST_UP.replace("up", "down"), FIRST_UP),
    (lambda t: t.replace(LAST_BRANCH + "\n", ""), "end of file", LAST_BRANCH),
    (lambda t: t + EXTRA_BRANCH + "\n", EXTRA_BRANCH, "end of file"),
], ids=["flipped-dir", "last-line-dropped", "extra-line"])
def test_model_loader_names_the_first_differing_line_in_full(half_model, edit, have, want):
    text = dump_model(half_model)
    assert FIRST_UP in text and text.endswith(LAST_BRANCH + "\n")
    with pytest.raises(SerializationError) as err:
        load_model(edit(text))
    assert str(err.value) == (
        f"model line {have!r} differs from the model its plan rebuilds: {want!r}")


def test_plan_loader_rejects_a_non_integer_level_count(half_plan):
    with pytest.raises(SerializationError, match="not an integer literal: 'abc'"):
        load_plan(dump_plan(half_plan).replace("K = 1", "K = abc"))


PLAN_EDITS = {
    "unknown-key": (lambda t: t + "gamma = 3\n", "unknown plan key 'gamma'"),
    "repeated-key": (lambda t: t + "K = 1\n", "repeated plan key 'K'"),
    "bad-variant": (lambda t: t.replace("variant = none", "variant = ful"),
                    "variant must be 'none' or 'full', got 'ful'"),
}


@pytest.mark.parametrize("edit,message", PLAN_EDITS.values(), ids=PLAN_EDITS.keys())
def test_plan_loader_rejects_unknown_repeated_and_bad_fields(half_plan, edit, message):
    text = dump_plan(half_plan)
    assert edit(text) != text
    with pytest.raises(SerializationError, match=message):
        load_plan(edit(text))


def test_plan_loader_reads_a_missing_variant_as_none(half_plan):
    text = dump_plan(half_plan).replace("variant = none\n", "")
    assert load_plan(text) == half_plan
