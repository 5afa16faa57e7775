"""Piecewise-affine interval maps with a prescribed entropy-to-scale ratio.

The construction is organized in levels.  Level k lives on a core interval
J_k = [a_{2k+1}, a_{2k}]; the cores shrink toward 0 and consecutive cores are
separated by gap intervals G_k = [a_{2k+2}, a_{2k+1}] carrying attracting
dynamics (every gap orbit falls onto the gap's midpoint b_k).  J_k is cut
into ell_k equal subintervals of width eps_k = gamma_k/ell_k, gamma_k being
the core length.  `_branch_positions` lists the full branches, and the free
positions between them carry excursions into the gaps; in order:

    position 1+4i (0 <= i <= i_k)     increasing full branch onto J_k
    position 2+4i (0 <= i <= i_k-1)   tent excursion up into G_{k-1}
    position 3+4i (0 <= i <= i_k-1)   decreasing full branch onto J_k
    position 4+4i (0 <= i <= i_k-1)   tent excursion down into G_k
    positions past 4i_k+1             one wide excursion up, ending at a_{2k}

with i_k = floor((ell_k/gamma_k)^beta), so the number of full branches grows
like (1/eps_k)^beta and the ratio log(branches)/|log eps_k| hugs beta.  The
increasing branches alone have pairwise domain gaps of 3*eps_k, which is what
certifies separated orbit families at scale eps_k.

beta = 1 cannot satisfy the layout inequality 4*i_k + 1 <= ell_k; the dense
variant (every subinterval an alternating full branch, counts ell_k^n) covers
that endpoint and must be requested explicitly.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, DomainError, ResourceError, SerializationError
from .pwa import DEFAULT_NODE_BUDGET, PwaMap, dump_pwa, eval_map, eval_sorted
from .rational import (
    body_lines, floor_pow, format_interval, format_rational, parse_int, parse_rational, read_fields,
    require_rebuilt,
)
from .reporting import CheckResult, VerificationSummary, first
from .separation import MarkovBranch, MarkovView, verify_cylinder_separation

ONE = Fraction(1)
GAP_ORBIT_STEPS = 200           # orbit steps `verify_model` follows in each level's gap
Node = tuple[Fraction, Fraction]


# === plans ===================================================================

@dataclass(frozen=True)
class FBetaLevel:
    """Per-level constants: core [a_odd, a_even], subdivision, gap attractor."""

    k: int
    a_even: Fraction      # a_{2k}: top of the core J_k
    a_odd: Fraction       # a_{2k+1}: bottom of the core J_k
    ell: int              # number of equal subintervals (odd, increasing in k)
    i_sel: int            # floor((ell/gamma)^beta): branch-selection parameter
    eps: Fraction         # subinterval width gamma/ell; also a_{2k+2}
    b: Fraction           # attracting midpoint of the gap G_k below the core

    @property
    def gamma(self) -> Fraction:
        return self.a_even - self.a_odd


@dataclass(frozen=True)
class FBetaPlan:
    beta: Fraction
    K: int
    seed_a1: Fraction
    variant_full: bool
    levels: tuple[FBetaLevel, ...]

    @property
    def tail_end(self) -> Fraction:
        """a_{2K+2}: right endpoint of the identity tail [0, a_{2K+2}]."""
        return self.levels[-1].eps

    def branch_count(self, k: int) -> int:
        """Size of the certified full-branch family at level k.

        Standard layout: the i_k+1 increasing branches (their 3*eps_k domain
        gaps are what makes the family separated at scale eps_k).  Dense
        variant: all ell_k subintervals.
        """
        lv = self.level(k)
        return lv.ell if self.variant_full else lv.i_sel + 1

    def level(self, k: int) -> FBetaLevel:
        if not 0 <= k <= self.K:
            raise DomainError(f"level {k} outside 0..{self.K}")
        return self.levels[k]


def _surely_infeasible(ell: int, gamma: Fraction, p: int, q: int) -> bool:
    # (ell/gamma)^(p/q) >= (ell+3)/4, cross-multiplied to integers.
    gn, gd = gamma.numerator, gamma.denominator
    return (ell * gd) ** p * 4**q >= gn**p * (ell + 3) ** q


def _feasible(ell: int, gamma: Fraction, beta: Fraction) -> bool:
    return 4 * floor_pow(Fraction(ell) / gamma, beta) + 1 <= ell


def _min_feasible_odd(gamma: Fraction, beta: Fraction, ell_prev: int, room: float) -> int:
    """Smallest odd ell > ell_prev with 4*floor((ell/gamma)^beta) + 1 <= ell,
    or a lower bound on it once its level no longer fits in ``room`` nodes.

    A linear scan would take ~10^9 steps at beta near 1, so once the scan
    enters the certainly-infeasible region we bisect its right edge instead:
    (ell/gamma)^beta is concave in ell and (ell+3)/4 affine, so the region
    where the first dominates the second is a single interval and bisection
    on the certificate is rigorous.  Under a finite ``room`` one probe comes
    first: when the region reaches top - 2, top the first doubling whose
    level leaves the room, it covers every probe the search would make, and
    the search would return top.

    ``ell_prev`` is 1 or a return of this function, all odd, so ell stays odd;
    in the bisection hi - lo > 2 means hi - lo >= 4 and lo < mid < hi.  Every
    return is _feasible or needs more than ``room`` nodes.
    """
    p, q = beta.numerator, beta.denominator
    ell = ell_prev + 2
    while not _surely_infeasible(ell, gamma, p, q):
        if _level_nodes(ell) > room or _feasible(ell, gamma, beta):
            return ell
        ell += 2
    lo = ell
    if room < math.inf:
        top = lo
        while _level_nodes(top) <= room:
            top = 2 * top + 1
        if top > lo and _surely_infeasible(top - 2, gamma, p, q):
            return top
    hi = lo
    while _level_nodes(hi) <= room and _surely_infeasible(hi, gamma, p, q):
        hi = 2 * hi + 1
    while hi - lo > 2:
        mid = lo + (hi - lo) // 4 * 2
        if _surely_infeasible(mid, gamma, p, q):
            lo = mid
        else:
            hi = mid
    ell = hi
    while not (_level_nodes(ell) > room or _feasible(ell, gamma, beta)):
        ell += 2
    return ell


def _level_nodes(ell: int) -> int:
    return 2 * ell + 6


def _estimate_nodes(levels: list[FBetaLevel] | tuple[FBetaLevel, ...]) -> int:
    return sum(_level_nodes(lv.ell) for lv in levels) + 2


def plan_sequences(
    beta: Fraction,
    K: int,
    seed_a1: Fraction = Fraction(1, 2),
    variant_full: bool = False,
    node_budget: int | None = None,
) -> FBetaPlan:
    """Deterministic level constants for the target ratio beta.

    Free choices are pinned: a_1 = seed_a1, a_{2k+1} = a_{2k}/2 afterwards
    (midpoint rule), ell_k minimal feasible odd, b_k the gap midpoint, and
    a_{2k+2} = eps_k closing the recursion; ResourceError past ``node_budget``.
    """
    beta = Fraction(beta)
    seed_a1 = Fraction(seed_a1)
    if not 0 <= beta <= 1:
        raise DomainError(f"beta must lie in [0,1], got {beta}")
    if K < 0:
        raise DomainError(f"K must be >= 0, got {K}")
    if not 0 < seed_a1 < 1:
        raise DomainError(f"seed_a1 must lie strictly inside (0,1), got {seed_a1}")
    if beta == 1 and not variant_full:
        raise ContractError(
            "beta = 1 cannot satisfy 4*i_k + 1 <= ell_k;"
            " request the dense variant (variant_full=True) explicitly"
        )
    if variant_full and beta != 1:
        raise ContractError("the dense variant is the beta = 1 construction only")

    levels: list[FBetaLevel] = []
    a_even, a_odd = ONE, seed_a1
    ell_prev = 1
    for k in range(K + 1):
        gamma = a_even - a_odd
        used = _estimate_nodes(levels)
        room = math.inf if node_budget is None else node_budget - used
        ell = ell_prev + 2 if variant_full else _min_feasible_odd(gamma, beta, ell_prev, room)
        # below, unless variant_full, ell is _feasible: 4*i_sel + 1 <= ell
        if _level_nodes(ell) > room:
            raise ResourceError(f"this plan needs at least {used + _level_nodes(ell)} nodes"
                                f" by level {k}, over the budget of {node_budget}")
        i_sel = floor_pow(Fraction(ell) / gamma, beta)
        eps = gamma / ell
        # later levels have a_odd = gamma and ell >= 3, so only level 0 can fail
        if eps >= a_odd:
            raise ContractError(f"level {k} leaves no gap below its core: eps ="
                                f" {format_rational(eps)} >= a_odd = {format_rational(a_odd)}")
        b = (eps + a_odd) / 2                      # midpoint of G_k = [a_{2k+2}, a_{2k+1}]
        levels.append(FBetaLevel(k, a_even, a_odd, ell, i_sel, eps, b))
        a_even, a_odd = eps, eps / 2               # next core: a_{2k+2} = eps_k, midpoint rule
        ell_prev = ell
    return FBetaPlan(beta, K, seed_a1, variant_full, tuple(levels))


def predicted_count(plan: FBetaPlan, k: int, n: int) -> int:
    """floor((1/eps_k)^beta)^n — the level-k separated-count prediction.

    The dense variant predicts ell_k^n (every subinterval is a branch).
    """
    if n < 0:
        raise DomainError(f"predicted_count needs n >= 0, got {n}")
    lv = plan.level(k)
    if plan.variant_full:
        return lv.ell**n
    return floor_pow(1 / lv.eps, plan.beta) ** n


# === building the map ========================================================

@dataclass(frozen=True)
class BranchEntry:
    level: int
    j: int                 # 1-based subinterval position within the level
    increasing: bool
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class FBetaModel:
    plan: FBetaPlan
    map: PwaMap
    branch_table: tuple[BranchEntry, ...]
    views: tuple[MarkovView, ...]      # one certified full-branch view per level

    def view(self, k: int) -> MarkovView:
        return self.views[self.plan.level(k).k]


def build_fbeta(plan: FBetaPlan, node_budget: int = DEFAULT_NODE_BUDGET) -> FBetaModel:
    """The assembled map, its branch table, and one level view per level
    checked against the map."""
    pwa, branch_table = assemble_fbeta(plan, node_budget)
    return FBetaModel(plan, pwa, branch_table, level_views(plan, pwa))


def assemble_fbeta(
    plan: FBetaPlan, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[PwaMap, tuple[BranchEntry, ...]]:
    """Assemble the map bottom-up: identity tail, then gap + level per k.

    Neighbouring pieces share one boundary node, which the lower appends:
    the tail, gap k and level k end at (eps_k, eps_k), (c_0, a_odd) and
    (a_even, a_even), the next gap's left end or (1, 1).  The planner refuses
    eps_k >= a_odd, so x strictly increases; `PwaMap.from_nodes` checks that
    and canonicalizes (merging level-0 top excursions into plateaus at height
    1, where the gap above the top core is {1}).  Builds no level view.
    """
    est = _estimate_nodes(plan.levels)
    if est > node_budget:
        raise ResourceError(
            f"building this plan needs about {est} nodes,"
            f" over the budget of {node_budget}"
        )
    tail = plan.tail_end
    nodes = [(Fraction(0), Fraction(0)), (tail, tail)]   # identity on [0, a_{2K+2}]
    branch_table: list[BranchEntry] = []
    for k in range(plan.K, -1, -1):
        lv = plan.levels[k]
        _push_gap(nodes, lv.eps, lv.a_odd, lv.b)       # G_k = [a_{2k+2}, a_{2k+1}]
        top_peak = plan.levels[k - 1].b if k >= 1 else ONE
        _push_level(nodes, lv, _branch_positions(plan, lv), top_peak, branch_table)
    return PwaMap.from_nodes(nodes), tuple(branch_table)


def _push_gap(nodes: list[Node], g_l: Fraction, g_r: Fraction, b: Fraction) -> None:
    """Gap map on [g_l, g_r]: both endpoints fixed, plateau at the midpoint b.

    Outer pieces have slope 2, the middle half [m_l, m_r] is flat at b; so
    f(x) > x strictly on (g_l, b), f(x) < x strictly on (b, g_r), and every
    interior orbit lands exactly on b in finitely many steps.  Appends the
    nodes after the shared (g_l, g_l).
    """
    m_l, m_r = (g_l + b) / 2, (b + g_r) / 2
    nodes += [(m_l, b), (b, b), (m_r, b), (g_r, g_r)]


def _half_steps(lv: FBetaLevel) -> Callable[[int], Fraction]:
    """t -> c(t/2) = a_odd + t*eps/2, one Fraction from integer numerators."""
    den = 2 * math.lcm(lv.a_odd.denominator, lv.eps.denominator)
    a0, e = int(lv.a_odd * den), int(lv.eps * den) // 2
    return lambda t: Fraction(a0 + t * e, den)


def _branch_positions(plan: FBetaPlan, lv: FBetaLevel) -> list[tuple[int, bool]]:
    """Level lv's full branches in x order as (position j, increasing): every
    position, alternately up and down, in the dense variant; else 1+4i up and
    3+4i down, up to 4*i_k + 1 <= ell_k.  The one statement of the layout."""
    if plan.variant_full:
        return [(j, j % 2 == 1) for j in range(1, lv.ell + 1)]
    return [(j, j % 4 == 1) for j in range(1, 4 * lv.i_sel + 2, 2)]


def _push_level(
    nodes: list[Node],
    lv: FBetaLevel,
    positions: list[tuple[int, bool]],
    top_peak: Fraction,
    branch_table: list[BranchEntry],
) -> None:
    """Append level lv's nodes after the shared (c_0, a_odd), up to (a_even, a_even):
    each branch of ``positions`` from the last node, c_{j-1}; where the next (or the
    core top, ell + 1) is more than one position on, an excursion over the free
    positions peaking mid-way, at ``top_peak`` after an up branch, else at b."""
    h = _half_steps(lv)
    for (j, up), (n, _) in zip(positions, positions[1:] + [(lv.ell + 1, True)]):
        end = lv.a_even if up else lv.a_odd
        branch_table.append(BranchEntry(lv.k, j, up, nodes[-1][0], x := h(2 * j)))
        nodes.append((x, end))
        if n > j + 1:
            nodes += [(h(j + n - 1), top_peak if up else lv.b), (h(2 * n - 2), end)]


def level_views(plan: FBetaPlan, pwa: PwaMap | None = None) -> tuple[MarkovView, ...]:
    """One full-branch view per level, checked against `pwa` if given: the
    increasing branches of `_branch_positions`, whose domain gaps are 3*eps,
    or every branch of the dense variant, whose domains touch (no scale)."""
    views = []
    for lv in plan.levels:
        h = _half_steps(lv)
        branches = tuple(MarkovBranch(h(2 * j - 2), h(2 * j), up)
                         for j, up in _branch_positions(plan, lv) if up or plan.variant_full)
        scale = None if plan.variant_full else lv.eps
        views.append(MarkovView(lv.a_odd, lv.a_even, branches, scale, pwa, label=f"level {lv.k}"))
    return tuple(views)


# === verification ============================================================

def verify_model(model: FBetaModel) -> VerificationSummary:
    """Re-check every structural promise of a built model, independently.

    Runs all checks and reports each; a failed check names its first failing
    item and evaluates nothing after it, and `first_failure` is the first
    failed check.
    """
    plan, m = model.plan, model.map
    f0, f1 = eval_map(m, Fraction(0)), eval_map(m, ONE)
    checks = [CheckResult("endpoints-fixed", f0 == 0 and f1 == ONE, f"f(0)={f0}, f(1)={f1}")]

    # the table ascends (levels are assembled bottom-up), so one pass values it
    ends = eval_sorted(m, [x for e in model.branch_table for x in (e.lo, e.hi)])
    checks.append(first("branches-onto-core", "all full branches hit both core endpoints", (
        f"level {e.level} j={e.j} misses the core endpoints"
        for e, lo, hi in zip(model.branch_table, ends[::2], ends[1::2])
        if ((lo, hi) if e.increasing else (hi, lo))
        != (plan.levels[e.level].a_odd, plan.levels[e.level].a_even))))

    if not plan.variant_full:
        # a stable sort keeps each level's branches in order and puts level 0 first
        ups = sorted((e for e in model.branch_table if e.increasing), key=lambda e: e.level)
        checks.append(first("branch-gaps", "increasing-branch domain gaps all equal 3*eps", (
            f"level {a.level}: gap {b.lo - a.hi} after j={a.j}" for a, b in zip(ups, ups[1:])
            if a.level == b.level and b.lo - a.hi != 3 * plan.levels[a.level].eps)))

    def dynamics_failures():
        for lv in plan.levels:
            if eval_map(m, lv.b) != lv.b:
                yield f"level {lv.k}: b={lv.b} not fixed"
            x = lv.a_odd - (lv.a_odd - lv.b) / 4       # right quarter-point of the gap
            fx = eval_map(m, x)
            if not lv.b < fx < x:
                yield f"level {lv.k}: f({x})={fx} not strictly between b and x"
            # b is the midpoint of the gap [eps, a_odd] and the orbit starts 3/4 of
            # the half-gap from b; a step away from b fails, so no orbit leaves the gap
            prev, x = abs(x - lv.b), fx
            for _ in range(GAP_ORBIT_STEPS):
                d = abs(x - lv.b)
                if d > prev or (prev > 0 and d == prev and x != lv.b):
                    yield f"level {lv.k}: gap distance stalled at {d}"
                if x == lv.b:                          # fixed, so every later step passes
                    break
                prev, x = d, eval_map(m, x)
    checks.append(first("gap-dynamics", "gap orbits land on b and stay", dynamics_failures()))

    tail = plan.tail_end
    checks.append(CheckResult("tail-invariant",
                              eval_map(m, tail / 2) == tail / 2 and eval_map(m, tail) == tail,
                              f"identity on [0, {tail}]"))

    def range_failures():
        for lv in plan.levels:
            hi_bound = plan.levels[lv.k - 1].a_odd if lv.k >= 1 else ONE
            js = range(1, lv.ell + 1, max(1, lv.ell // 64))
            values = eval_sorted(m, [lv.a_odd + (2 * j - 1) * lv.eps / 2 for j in js])
            yield from (f"level {lv.k} j={j}: value {v} escapes" for j, v in zip(js, values)
                        if not lv.eps <= v <= hi_bound)     # eps: bottom of the gap below
    checks.append(first("level-range", "level values stay within the core and its two gaps",
                        range_failures()))

    checks.append(first("cylinder-count", "branch_count^n >= predicted for n=2", (
        f"level {k}: {plan.branch_count(k)}^2 < prediction" for k in range(plan.K + 1)
        if plan.branch_count(k) ** 2 < predicted_count(plan, k, 2))))

    def ratio_failures():
        for lv in plan.levels:
            ratio = math.log(plan.branch_count(lv.k)) / abs(math.log(lv.eps))
            delta = (1 + abs(math.log(lv.gamma))) / abs(math.log(lv.eps))
            if abs(ratio - float(plan.beta)) > delta:
                yield f"level {lv.k}: ratio {ratio:.6f} outside beta ± {delta:.6f}"
    checks.append(first("ratio-window", "ratios within (1+|log gamma|)/|log eps| of beta",
                        ratio_failures()))

    # the view premises certify each level with a scale at every n; the
    # pairwise minimum audits them where the family is small
    certified, bare, audits = [], [], []
    for k, view in enumerate(model.views):
        scale, b_count = view.separation_scale, view.branch_count
        (bare if scale is None else certified).append(f"level {k}")
        n = 0 if scale is None else 2 if b_count <= 12 else 1 if b_count <= 600 else 0
        if n:
            audits.append((k, view, n))
    passing = "; ".join(filter(None, (
        certified and f"{', '.join(certified)} certified by the view premises at every n;"
                      f" d_n audit above the scale at"
                      f" {', '.join(f'level {k} n={n}' for k, _, n in audits) or 'no level'}",
        bare and f"{', '.join(bare)} uncertified: no separation scale")))
    checks.append(first("separation-certificate", passing, (
        f"level {k}: d_{n} audit minimum {least} <= scale {view.separation_scale}"
        for k, view, n in audits
        if (least := verify_cylinder_separation(view, n)) <= view.separation_scale)))

    return VerificationSummary(tuple(checks))


# === serialization ===========================================================

PLAN_HEADER = "fbeta-plan v1"
PLAN_KEYS = ("beta", "K", "seed_a1", "variant")
MODEL_HEADER = "fbeta-model v1"


def dump_plan(plan: FBetaPlan) -> str:
    lines = [
        PLAN_HEADER,
        f"beta = {format_rational(plan.beta)}",
        f"K = {plan.K}",
        f"seed_a1 = {format_rational(plan.seed_a1)}",
        f"variant = {'full' if plan.variant_full else 'none'}",
    ]
    for lv in plan.levels:
        lines.append(
            f"level {lv.k}: a_even={format_rational(lv.a_even)}"
            f" a_odd={format_rational(lv.a_odd)} ell={lv.ell} i={lv.i_sel}"
            f" eps={format_rational(lv.eps)} b={format_rational(lv.b)}"
        )
    return "\n".join(lines) + "\n"


def load_plan(text: str, node_budget: int = DEFAULT_NODE_BUDGET) -> FBetaPlan:
    """Parse and re-derive under ``node_budget`` (a plan whose levels need
    more nodes is refused with ResourceError while it is planned): the stored
    level lines must equal the rebuilt plan's, in order."""
    lines = body_lines(text, PLAN_HEADER)
    level_lines = [ln for ln in lines if ln.startswith("level ")]
    fields = read_fields([ln for ln in lines if not ln.startswith("level ")],
                         PLAN_KEYS, ("beta", "K", "seed_a1"), "plan key", "=")
    beta = parse_rational(fields["beta"])
    K = parse_int(fields["K"])
    seed = parse_rational(fields["seed_a1"])
    variant = fields.get("variant", "none")
    if variant not in ("none", "full"):
        raise SerializationError(f"plan variant must be 'none' or 'full', got {variant!r}")
    if len(level_lines) != K + 1:
        raise SerializationError(f"expected {K + 1} level lines, found {len(level_lines)}")
    plan = plan_sequences(beta, K, seed, variant == "full", node_budget)
    require_rebuilt(level_lines, dump_plan(plan).splitlines()[-(K + 1):],
                    "stored level line does not match the plan rule: {0!r}")
    return plan


def dump_model(model: FBetaModel) -> str:
    lines = [MODEL_HEADER, "[plan]", dump_plan(model.plan).rstrip("\n"), "[map]",
             dump_pwa(model.map).rstrip("\n"), "[branches]"]
    for e in model.branch_table:
        lines.append(
            f"level={e.level} j={e.j} dir={'up' if e.increasing else 'down'}"
            f" dom={format_interval(e.lo, e.hi)}"
        )
    return "\n".join(lines) + "\n"


def load_model(text: str) -> FBetaModel:
    """Rebuild the model from its [plan] section (under the default node
    budget); every other stored line must equal the rebuilt model's."""
    lines = body_lines(text, MODEL_HEADER)
    if lines[:1] != ["[plan]"]:
        raise SerializationError("model file has no [plan] section after its header")
    end = next((i for i in range(1, len(lines)) if lines[i].startswith("[")), len(lines))
    model = build_fbeta(load_plan("\n".join(lines[1:end])))
    require_rebuilt(lines, dump_model(model).splitlines()[1:],
                    "model line {0!r} differs from the model its plan rebuilds: {1!r}")
    return model
