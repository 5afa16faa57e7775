"""Local surgery: affine conjugation, the implant splice against the bump
blend, full implants, and transported views."""
from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OVER_BUDGET_PLAN, prime_denominator_pwa, random_boundary_fixed_pwa, random_pwa, value_at,
)
from mdimlab import (
    ContractError,
    DomainError,
    ResourceError,
    SerializationError,
    SurgeryPlan,
    VerificationError,
    build_fbeta,
    conjugate_into_interval,
    dump_plan,
    dump_pwa,
    dump_surgery_plan,
    eval_map,
    implant,
    load_surgery_plan,
    mdim_profile,
    plan_sequences,
    sup_distance,
    transport_markov_view,
    transported_views,
    verify_cylinder_separation,
)
from mdimlab.pwa import PwaMap, _distance_on
from mdimlab.rational import format_interval
from mdimlab.separation import METHOD_CYLINDER, MarkovBranch, MarkovView
from mdimlab.surgery import _verify_implant

F = Fraction


# === affine conjugation =======================================================

def test_conjugation_requires_fixed_endpoints(tent):
    with pytest.raises(ContractError, match="must fix 0 and 1"):
        conjugate_into_interval(tent, F(1, 4), F(3, 4))


def test_conjugation_rescales_and_extends_by_the_identity(half_model):
    m = half_model.map
    conj = conjugate_into_interval(m, F(1, 4), F(3, 4))
    for x in (F(0), F(1, 8), F(1, 4), F(3, 4), F(7, 8), F(1)):
        assert eval_map(conj, x) == x
    for x in (F(0), F(1, 29), F(1, 2), F(57, 58), F(1)):
        assert eval_map(conj, F(1, 4) + x / 2) == F(1, 4) + eval_map(m, x) / 2


def test_conjugation_rejects_a_degenerate_target(identity):
    with pytest.raises(DomainError, match="subinterval"):
        conjugate_into_interval(identity, F(3, 4), F(1, 4))


# === the implant path against a plain Fraction reference ======================
# The library merges node sets by integer keys, moves points with integer
# numerators and evaluates through node tables; these references sort
# Fraction sets and interpolate with conftest's value_at instead.

seeds = st.integers(0, 10**9)
kinds = st.sampled_from(["small", "prime"])


def host_map(rng: random.Random, kind: str, flat: tuple[Fraction, Fraction] | None = None) -> PwaMap:
    """A random map, on the 1/24 grid or on its own primes; the identity on ``flat`` if given."""
    m = random_pwa(rng) if kind == "small" else prime_denominator_pwa(rng, rng.randint(2, 9))
    if flat is None:
        return m
    lo, hi = flat
    return PwaMap.from_nodes([(x, y) for x, y in m.nodes() if x < lo] + [(lo, lo), (hi, hi)]
                             + [(x, y) for x, y in m.nodes() if x > hi])


def fixing_map(rng: random.Random, kind: str) -> PwaMap:
    """A random map fixing 0 and 1, so it conjugates into a window."""
    if kind == "small":
        return random_boundary_fixed_pwa(rng)
    inner = prime_denominator_pwa(rng, rng.randint(3, 9)).nodes()[1:-1]
    return PwaMap.from_nodes([(F(0), F(0)), *inner, (F(1), F(1))])


def nested_windows(rng: random.Random) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """(inner, outer) windows with ends on one large prime denominator."""
    p = rng.choice([1009, 7919, 104729])
    t_lo, h_lo, h_hi, t_hi = sorted(F(k, p) for k in rng.sample(range(1, p), 4))
    return (h_lo, h_hi), (t_lo, t_hi)


def conjugate_reference(m: PwaMap, lo: Fraction, hi: Fraction) -> PwaMap:
    nodes = [(F(0), F(0))] if lo > 0 else []
    nodes += [(lo + x * (hi - lo), lo + y * (hi - lo)) for x, y in m.nodes()]
    nodes += [(F(1), F(1))] if hi < 1 else []
    return PwaMap.from_nodes(nodes)


def make_bump(inner: tuple[Fraction, Fraction], outer: tuple[Fraction, Fraction]) -> PwaMap:
    """Trapezoid bump: 1 on ``inner``, 0 off ``outer``, affine collars."""
    (h_lo, h_hi), (t_lo, t_hi) = inner, outer
    if not (t_lo < h_lo < h_hi < t_hi):
        raise DomainError(
            f"inner window {format_interval(h_lo, h_hi)} must sit strictly inside "
            f"outer window {format_interval(t_lo, t_hi)}"
        )
    if t_lo < 0 or t_hi > 1:
        raise DomainError(f"outer window {format_interval(t_lo, t_hi)} leaves [0, 1]")
    nodes: list[tuple[Fraction, Fraction]] = []
    if t_lo > 0:
        nodes.append((Fraction(0), Fraction(0)))
    nodes += [(t_lo, Fraction(0)), (h_lo, Fraction(1)), (h_hi, Fraction(1)), (t_hi, Fraction(0))]
    if t_hi < 1:
        nodes.append((Fraction(1), Fraction(0)))
    return PwaMap.from_nodes(nodes)


def blend_reference(base: PwaMap, insert: PwaMap, profile: PwaMap) -> PwaMap:
    """(1 - chi)·base + chi·insert at every merged node, which must be
    piecewise affine: on no merged piece may chi and insert − base both vary."""
    xs = sorted(set(base.xs) | set(insert.xs) | set(profile.xs))
    chi = [value_at(profile, x) for x in xs]
    diffs = [value_at(insert, x) - value_at(base, x) for x in xs]
    assert all(c0 == c1 or d0 == d1 for c0, c1, d0, d1 in zip(chi, chi[1:], diffs, diffs[1:]))
    return PwaMap.from_nodes([(x, value_at(base, x) + c * d) for x, c, d in zip(xs, chi, diffs)])


def distance_reference(a: PwaMap, b: PwaMap, lo: Fraction, hi: Fraction) -> Fraction:
    """max |a − b| over [lo, hi], taken at lo, hi and either map's nodes between."""
    xs = {lo, hi} | {x for x in a.xs + b.xs if lo < x < hi}
    return max(abs(value_at(a, x) - value_at(b, x)) for x in xs)


def nearby_map(rng: random.Random, a: PwaMap, relation: str) -> PwaMap:
    """``a`` but for its value at 1 ("at 1"), or but for one kink 1/10^9 off
    ``a`` strictly inside one of its pieces ("in a piece")."""
    if relation == "at 1":
        return PwaMap.from_nodes(a.nodes()[:-1] + [(F(1), F(rng.randint(0, 1009), 1009))])
    j = rng.randrange(len(a.xs) - 1)
    x = a.xs[j] + (a.xs[j + 1] - a.xs[j]) * F(rng.randrange(1, 1000), 1000)
    y = value_at(a, x) + (F(-1, 10**9) if value_at(a, x) else F(1, 10**9))
    return PwaMap.from_nodes(sorted(a.nodes() + [(x, y)]))


@settings(max_examples=80, deadline=None)
@given(seeds, kinds, kinds, st.sampled_from(["other", "at 1", "in a piece"]))
def test_sup_distance_matches_a_fraction_reference(seed, kind_a, kind_b, relation):
    rng = random.Random(seed)
    a, b = host_map(rng, kind_a), host_map(rng, kind_b)
    if relation != "other":
        b = nearby_map(rng, a, relation)
    want = max(abs(value_at(a, x) - value_at(b, x)) for x in sorted(set(a.xs) | set(b.xs)))
    assert sup_distance(a, b) == want == sup_distance(b, a)
    if relation == "in a piece":
        assert want == F(1, 10**9)


@settings(max_examples=60, deadline=None)
@given(seeds, kinds)
def test_conjugation_and_transport_match_a_fraction_reference(seed, kind):
    rng = random.Random(seed)
    m = fixing_map(rng, kind)
    (lo, hi), (t_lo, t_hi) = nested_windows(rng)
    for window in ((lo, hi), (F(0), hi), (lo, F(1)), (t_lo, t_hi)):
        assert dump_pwa(conjugate_into_interval(m, *window)) == dump_pwa(conjugate_reference(m, *window))
    end = F(rng.randrange(1, 1013), 1013)
    view = MarkovView(F(0), F(1), (MarkovBranch(end / 2, end, False),), end / 3)
    moved = transport_markov_view(view, lo, hi)
    assert moved.branches == (MarkovBranch(lo + end / 2 * (hi - lo), lo + end * (hi - lo), False),)
    assert (moved.core_lo, moved.core_hi, moved.separation_scale) == (lo, hi, end / 3 * (hi - lo))


@settings(max_examples=80, deadline=None)
@given(seeds, kinds, st.sampled_from(["inside", "from 0", "to 1", "whole", "point"]),
       st.sampled_from(["other", "same", "bent", "at 1", "in a piece"]))
def test_distance_on_matches_a_fraction_reference(seed, kind, window, relation):
    rng = random.Random(seed)
    a = host_map(rng, kind)
    (h_lo, h_hi), _ = nested_windows(rng)
    lo, hi = {"inside": (h_lo, h_hi), "from 0": (0, h_hi), "to 1": (h_lo, 1), "whole": (0, 1),
              "point": (h_lo, h_lo)}[window]
    b = host_map(rng, kind)
    if relation in ("at 1", "in a piece"):
        b = nearby_map(rng, a, relation)
    elif relation != "other":       # b follows a on [lo, hi] and b's own nodes elsewhere
        inside = [(x, y) for x, y in a.nodes() if lo < x < hi]
        if relation == "bent" and hi > lo:   # ... but for one kink of its own inside
            x = lo + (hi - lo) * F(rng.randrange(1, 1000), 1000)
            inside = sorted({*inside, (x, value_at(a, x) + (F(-1, 10**9) if value_at(a, x) else
                                                             F(1, 10**9)))})
        b = PwaMap.from_nodes(
            [(x, y) for x, y in b.nodes() if x < lo] + [(F(lo), value_at(a, lo))] + inside
            + ([(F(hi), value_at(a, hi))] if hi > lo else [])
            + [(x, y) for x, y in b.nodes() if x > hi])
    got = _distance_on(a, b, lo, hi)
    assert got == distance_reference(a, b, lo, hi) == _distance_on(b, a, lo, hi)
    # the max over the window: no point of it is farther apart
    assert all(abs(value_at(a, x) - value_at(b, x)) <= got
               for x in (lo + (hi - lo) * F(k, 16) for k in range(17)))
    if relation in ("same", "bent"):
        assert (got == 0) == (relation == "same" or hi == lo)
    elif relation == "at 1" and hi < a.xs[-2]:
        assert got == 0


def test_bump_profile_is_one_inside_and_zero_outside():
    chi = make_bump((F(2, 5), F(3, 5)), (F(7, 20), F(13, 20)))
    for x in (F(2, 5), F(1, 2), F(3, 5)):
        assert eval_map(chi, x) == 1
    for x in (F(0), F(7, 20), F(13, 20), F(1)):
        assert eval_map(chi, x) == 0
    assert eval_map(chi, F(19, 50)) == F(3, 5)  # on the rising collar


def test_bump_profile_may_touch_the_domain_boundary():
    chi = make_bump((F(2, 5), F(3, 5)), (F(0), F(1)))
    assert eval_map(chi, F(0)) == 0
    assert eval_map(chi, F(1, 5)) == F(1, 2)
    assert eval_map(chi, F(1)) == 0


def test_bump_profile_windows_must_nest():
    with pytest.raises(DomainError, match="strictly inside"):
        make_bump((F(7, 20), F(13, 20)), (F(2, 5), F(3, 5)))
    with pytest.raises(DomainError, match="leaves"):
        make_bump((F(1, 4), F(3, 4)), (F(1, 5), F(6, 5)))


# K = 0 staircases, two standard and one dense, so that each example is quick
SPLICE_PLANS = (plan_sequences(F(3, 10), 0), plan_sequences(F(1, 2), 0),
                plan_sequences(F(1), 0, variant_full=True))


@settings(max_examples=40, deadline=None)
@given(seeds, kinds, st.sampled_from(SPLICE_PLANS), st.booleans())
def test_implant_is_the_blend_for_every_valid_profile(seed, kind, fplan, custom):
    rng = random.Random(seed)
    inner, outer = nested_windows(rng)
    (h_lo, h_hi), (t_lo, t_hi) = inner, outer
    flat = (rng.choice([t_lo, t_lo / 2, F(0)]), rng.choice([(1 + t_hi) / 2, F(1)]))
    host = host_map(rng, kind, flat)
    profile = make_bump(inner, outer)
    if custom:                      # any values in [0, 1] on the two collars
        collars = {lo + (hi - lo) * F(rng.randrange(1, 100), 100)
                   for lo, hi in ((t_lo, h_lo), (h_hi, t_hi)) for _ in range(rng.randint(0, 3))}
        profile = PwaMap.from_nodes(sorted(profile.nodes()
                                           + [(x, F(rng.randint(0, 7), 7)) for x in collars]))
    plan = SurgeryPlan(host, (flat[0] + flat[1]) / 2, flat, inner, outer, fplan)
    insert = conjugate_into_interval(build_fbeta(fplan).map, *inner)
    assert dump_pwa(implant(plan)) == dump_pwa(blend_reference(host, insert, profile))


# === implant preconditions ====================================================

@pytest.fixture()
def standard_plan(identity, half_plan):
    return SurgeryPlan(
        identity,
        F(1, 2),
        (F(3, 20), F(17, 20)),
        (F(1, 4), F(3, 4)),
        (F(1, 5), F(4, 5)),
        half_plan,
    )


def test_implant_rejects_swapped_windows(standard_plan):
    bad = dataclasses.replace(
        standard_plan, J_hat=standard_plan.J_tilde, J_tilde=standard_plan.J_hat
    )
    with pytest.raises(ContractError, match="nest strictly inside"):
        implant(bad)


def test_implant_rejects_an_outer_window_equal_to_the_flat_interval(standard_plan):
    bad = dataclasses.replace(standard_plan, J=(F(1, 5), F(4, 5)))
    with pytest.raises(ContractError, match="nest properly inside"):
        implant(bad)


def test_implant_rejects_an_off_center_flat_interval(standard_plan):
    bad = dataclasses.replace(standard_plan, J=(F(3, 20), F(9, 10)))
    with pytest.raises(ContractError, match="not centered"):
        implant(bad)


def test_implant_requires_the_host_to_fix_the_flat_interval(tent, half_plan):
    bad = SurgeryPlan(
        tent,
        F(2, 3),
        (F(17, 30), F(23, 30)),
        (F(19, 30), F(7, 10)),
        (F(3, 5), F(11, 15)),
        half_plan,
    )
    with pytest.raises(ContractError, match="host must fix"):
        implant(bad)


def test_implant_enforces_the_distance_budget(standard_plan):
    bad = dataclasses.replace(standard_plan, budget=F(1))
    with pytest.raises(ContractError, match="a third of the budget"):
        implant(bad)


# === a full implant ===========================================================

@pytest.fixture(scope="module")
def implanted(identity, half_plan):
    plan = SurgeryPlan(
        identity,
        F(1, 2),
        (F(3, 20), F(17, 20)),
        (F(1, 4), F(3, 4)),
        (F(1, 5), F(4, 5)),
        half_plan,
        budget=F(2),
    )
    return plan, implant(plan)


def test_implant_agrees_with_the_host_off_the_outer_window(implanted):
    plan, blended = implanted
    outside = [(x, y) for x, y in blended.nodes() if x <= F(1, 5) or x >= F(4, 5)]
    assert outside and all(y == x for x, y in outside)


def test_implant_distance_stays_within_the_outer_window_length(implanted, identity):
    plan, blended = implanted
    moved = sup_distance(blended, identity)
    assert moved == F(83, 232)
    assert moved <= plan.J_tilde[1] - plan.J_tilde[0]


def test_implant_fixes_the_inner_window_endpoints(implanted):
    _, blended = implanted
    assert eval_map(blended, F(1, 4)) == F(1, 4)
    assert eval_map(blended, F(3, 4)) == F(3, 4)


def test_inner_window_orbits_never_escape(implanted):
    _, blended = implanted
    x = F(27, 100)
    for _ in range(12):
        x = eval_map(blended, x)
        assert F(1, 4) <= x <= F(3, 4)


def test_implant_verification_catches_a_tampered_blend(implanted, half_model):
    plan, blended = implanted
    insert = conjugate_into_interval(half_model.map, *plan.J_hat)
    leaked = PwaMap.from_nodes(sorted(blended.nodes() + [(F(1, 10), F(11, 100))]))
    with pytest.raises(VerificationError, match="leaked outside the outer window 1/5:4/5"):
        _verify_implant(leaked, plan, insert)
    nodes = blended.nodes()
    k = next(i for i, (x, y) in enumerate(nodes) if F(1, 4) < x < F(3, 4) and y < F(3, 4))
    nodes[k] = (nodes[k][0], nodes[k][1] + F(1, 10**6))
    with pytest.raises(VerificationError, match="1/4:3/4 does not carry the exact rescaled"):
        _verify_implant(PwaMap.from_nodes(nodes), plan, insert)


def test_implant_verification_catches_an_inner_value_outside_the_window(implanted, half_model):
    plan, blended = implanted
    insert = conjugate_into_interval(half_model.map, *plan.J_hat)
    # the staircase's top nodes sit exactly on the window's upper end, which is allowed
    assert F(3, 4) in blended.ys
    _verify_implant(blended, plan, insert)
    nodes = blended.nodes()
    k = next(i for i, (x, y) in enumerate(nodes) if F(1, 4) < x < F(3, 4) and y == F(3, 4))
    for escaped in (F(3, 4) + F(1, 10**9), F(1, 4) - F(1, 10**9)):
        nodes[k] = (nodes[k][0], escaped)
        with pytest.raises(VerificationError, match="inner window 1/4:3/4 is not invariant$"):
            _verify_implant(PwaMap.from_nodes(nodes), plan, insert)


def test_implant_verification_catches_a_leak_between_breakpoints(implanted, half_model):
    plan, blended = implanted
    insert = conjugate_into_interval(half_model.map, *plan.J_hat)
    # neither the host nor the insert has a breakpoint in (0, 1/5]
    nodes = [(F(0), F(0)), (F(9, 40), F(1, 5)), (F(1, 4), F(1, 4))]
    leaked = PwaMap.from_nodes(nodes + [(x, y) for x, y in blended.nodes() if x > F(1, 4)])
    assert leaked(F(1, 5)) == F(8, 45)
    with pytest.raises(VerificationError,
                       match="^implant leaked outside the outer window 1/5:4/5$"):
        _verify_implant(leaked, plan, insert)


@pytest.mark.parametrize("beta, full", [(F(1, 2), False), (F(1), True)], ids=["standard", "dense"])
def test_transported_views_are_the_built_model_views_moved_in(standard_plan, beta, full):
    plan = dataclasses.replace(standard_plan, fbeta_plan=plan_sequences(beta, 1, variant_full=full))
    blended = implant(plan)
    moved = tuple(transport_markov_view(v, *plan.J_hat, blended)
                  for v in build_fbeta(plan.fbeta_plan).views)
    assert transported_views(plan, blended) == moved


def test_transported_views_certify_against_the_blended_map(implanted, half_model):
    plan, blended = implanted
    views = transported_views(plan, blended)
    assert [v.label for v in views] == ["level 0 in 1/4:3/4", "level 1 in 1/4:3/4"]
    assert [v.branch_count for v in views] == [8, 464]
    assert [v.separation_scale for v in views] == [F(1, 116), F(1, 429896)]
    assert verify_cylinder_separation(views[0], 2) > F(1, 116)


def test_transported_view_ratios_stay_near_the_design_exponent(implanted, half_model):
    plan, blended = implanted
    views = transported_views(plan, blended)
    rates = [
        mdim_profile([v], [v.separation_scale], (1, 4), METHOD_CYLINDER).entries[0] for v in views
    ]
    assert rates[0].ratio == pytest.approx(math.log(8) / math.log(116))
    assert rates[1].ratio == pytest.approx(math.log(464) / math.log(429896))
    assert all(abs(r.ratio - 0.5) <= 0.10 for r in rates)


def test_transport_rejects_a_degenerate_target(half_model):
    with pytest.raises(DomainError, match="subinterval"):
        transport_markov_view(half_model.views[0], F(3, 4), F(1, 4))


# === serialization ============================================================

def test_surgery_plan_round_trip(tmp_path, implanted):
    plan, _ = implanted
    (tmp_path / "host.txt").write_text(dump_pwa(plan.host))
    (tmp_path / "fplan.txt").write_text(dump_plan(plan.fbeta_plan))
    text = dump_surgery_plan(plan, "host.txt", "fplan.txt")
    assert load_surgery_plan(text, tmp_path) == plan


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("key,ref", [("host", "host.txt"), ("plan", "fplan.txt")])
def test_surgery_plan_loader_names_an_unreadable_reference(tmp_path, implanted, key, ref, kind):
    plan, _ = implanted
    (tmp_path / "host.txt").write_text(dump_pwa(plan.host))
    (tmp_path / "fplan.txt").write_text(dump_plan(plan.fbeta_plan))
    text = dump_surgery_plan(plan, "host.txt", "fplan.txt")
    (tmp_path / ref).unlink()
    if kind == "directory":
        (tmp_path / ref).mkdir()
    with pytest.raises(SerializationError) as info:
        load_surgery_plan(text, tmp_path)
    assert str(info.value).startswith(f"{key} reference {str(tmp_path / ref)!r} cannot be read")


def test_surgery_plan_loads_its_plan_under_the_default_node_budget(tmp_path, implanted):
    plan, _ = implanted
    (tmp_path / "host.txt").write_text(dump_pwa(plan.host))
    (tmp_path / "fplan.txt").write_text(OVER_BUDGET_PLAN)
    text = dump_surgery_plan(plan, "host.txt", "fplan.txt")
    with pytest.raises(ResourceError, match="needs at least 1048582 nodes by level 0"):
        load_surgery_plan(text, tmp_path)


def test_surgery_plan_loader_rejects_bad_input(tmp_path):
    with pytest.raises(SerializationError, match="header"):
        load_surgery_plan("not-a-plan\n", tmp_path)
    with pytest.raises(SerializationError, match="missing field"):
        load_surgery_plan("surgery-plan v1\nP 1/2\n", tmp_path)
    with pytest.raises(SerializationError, match="bad line"):
        load_surgery_plan("surgery-plan v1\nP 1/2\nP 1/2\n", tmp_path)


@pytest.mark.parametrize("edit,message", [
    (lambda t: t + "foo 3\n", "unknown field 'foo'"),
    (lambda t: t.replace("budget 2/1", "budgte 1/2"), "unknown field 'budgte'"),
    (lambda t: t + "chi chi.txt\n", "unknown field 'chi'"),
], ids=["unknown-key", "misspelled-budget", "profile"])
def test_surgery_plan_loader_rejects_unknown_keys(tmp_path, implanted, edit, message):
    plan, _ = implanted
    (tmp_path / "host.txt").write_text(dump_pwa(plan.host))
    (tmp_path / "fplan.txt").write_text(dump_plan(plan.fbeta_plan))
    text = dump_surgery_plan(plan, "host.txt", "fplan.txt")
    assert edit(text) != text
    with pytest.raises(SerializationError, match=message):
        load_surgery_plan(edit(text), tmp_path)
