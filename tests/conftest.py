"""Shared fixtures: reference maps, seeded random-map builders, and the
acceptance recorder whose PASS/FAIL lines are echoed in the terminal summary."""
from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from mdimlab import (
    Horseshoe2DModel,
    PwaMap,
    ResourceError,
    build_fbeta,
    compose,
    identity_map,
    plan_sequences,
    tent_map,
)

ACCEPTANCE_LINES: list[str] = []


# === random map builders ======================================================

def random_pwa(rng: random.Random, max_interior: int = 4, denom: int = 24) -> PwaMap:
    """A random continuous piecewise-affine self-map with small denominators."""
    interior = sorted(rng.sample(range(1, denom), rng.randint(0, max_interior)))
    nodes = [(Fraction(0), Fraction(rng.randint(0, denom), denom))]
    nodes += [(Fraction(x, denom), Fraction(rng.randint(0, denom), denom)) for x in interior]
    nodes += [(Fraction(1), Fraction(rng.randint(0, denom), denom))]
    return PwaMap.from_nodes(nodes)


def random_boundary_fixed_pwa(
    rng: random.Random, max_interior: int = 3, denom: int = 16
) -> PwaMap:
    """Like random_pwa but fixing 0 and 1, so it conjugates into subintervals."""
    interior = sorted(rng.sample(range(1, denom), rng.randint(1, max_interior)))
    nodes = [(Fraction(0), Fraction(0))]
    nodes += [(Fraction(x, denom), Fraction(rng.randint(0, denom), denom)) for x in interior]
    nodes += [(Fraction(1), Fraction(1))]
    return PwaMap.from_nodes(nodes)


def prime_denominator_pwa(rng: random.Random, nodes: int, first_prime: int = 1009) -> PwaMap:
    """A map whose interior nodes each sit on their own prime denominator:
    x_i = i/N + 1/(2N·p_i) and y_i = r_i/p_i, so no small denominator is
    shared by all nodes and the lcm of the x denominators has about
    ``nodes`` times the digits of one prime."""
    primes: list[int] = []
    c = first_prime
    while len(primes) < nodes:
        if all(c % d for d in range(2, int(c**0.5) + 1)):
            primes.append(c)
        c += 1
    pts = [(Fraction(0), Fraction(rng.randrange(primes[0]), primes[0]))]
    for i, p in enumerate(primes[1:-1], 1):
        pts.append((Fraction(i, nodes) + Fraction(1, 2 * nodes * p), Fraction(rng.randrange(p), p)))
    pts.append((Fraction(1), Fraction(rng.randrange(primes[-1]), primes[-1])))
    return PwaMap.from_nodes(pts)


def near_nodes(m: PwaMap, offset: Fraction = Fraction(1, 10**12)) -> list[Fraction]:
    """Every node and the points ``offset`` on either side of it inside [0, 1]."""
    return sorted({y for x in m.xs for y in (x - offset, x, x + offset) if 0 <= y <= 1})


# === reference evaluation =====================================================
# The library evaluates maps, orbits and the counting kernels through one
# integer node table per map; the cross-checks hold them to this plain
# Fraction interpolation, which shares none of that code.

def value_at(m: PwaMap, x: Fraction) -> Fraction:
    """y0 + (y1 - y0)(x - x0)/(x1 - x0) on the node segment [x0, x1] holding x."""
    x = Fraction(x)
    assert 0 <= x <= 1, x
    i = min(bisect_right(m.xs, x), len(m.xs) - 1)
    x0, x1, y0, y1 = m.xs[i - 1], m.xs[i], m.ys[i - 1], m.ys[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def orbit_values(m: PwaMap, x: Fraction, n: int) -> list[Fraction]:
    """[x, f(x), ..., f^{n-1}(x)] by ``value_at``."""
    out = [Fraction(x)]
    for _ in range(n - 1):
        out.append(value_at(m, out[-1]))
    return out


def dn_reference(m: PwaMap, x: Fraction, y: Fraction, n: int) -> Fraction:
    """d_n(x, y) = max over the first n iterates of |f^k(x) - f^k(y)|, by ``value_at``."""
    return max(abs(a - b) for a, b in zip(orbit_values(m, x, n), orbit_values(m, y, n)))


# === reference iteration ======================================================
# The library iterates by repeated squaring and refuses a composition from
# its preimage count before building it; the cross-checks hold it to the
# plain step loop, which builds every power and checks each one built.

def iterate_by_steps(m: PwaMap, n: int, node_budget: int) -> PwaMap:
    """n steps of ``compose(m, r)`` from the identity, each power refused
    after it is built when its node count is over the budget."""
    result = identity_map()
    for step in range(1, n + 1):
        result = compose(m, result)
        if result.node_count > node_budget:
            raise ResourceError(f"iterate({step}) needs {result.node_count} nodes,"
                                f" over the budget of {node_budget} (requested n={n})")
    return result


# === reference cylinders and pairwise minima ==================================
# The library builds cylinder midpoints on the itinerary tree, one affine
# step per cylinder, and prunes its pairwise sweep; the cross-checks pull
# each cylinder back branch by branch and compare every pair instead.

def branch_pullback(view, idx: int, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Preimage inside branch idx of a subinterval [lo, hi] of the core."""
    br = view.branches[idx]
    s = (br.hi - br.lo) / (view.core_hi - view.core_lo)
    if br.increasing:
        return (br.lo + (lo - view.core_lo) * s, br.lo + (hi - view.core_lo) * s)
    return (br.lo + (view.core_hi - hi) * s, br.lo + (view.core_hi - lo) * s)


def cylinder_interval(view, itinerary: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """The interval of points following the given branch itinerary."""
    lo, hi = view.core_lo, view.core_hi
    for idx in reversed(itinerary):
        lo, hi = branch_pullback(view, idx, lo, hi)
    return lo, hi


def least_distances_reference(rows: list[list[int]]) -> list[int | None]:
    """Each integer row's least sup-norm distance to any other row, over all
    pairs (None for a lone row)."""
    return [min((max(abs(a - b) for a, b in zip(row, other))
                 for j, other in enumerate(rows) if j != i), default=None)
            for i, row in enumerate(rows)]


# === reference baker stage map ================================================
# The library reads slab-model orbits off Markov-view cylinders; the
# cross-checks walk the stage map forward point by point instead.

def slab_of(model, y: Fraction) -> int | None:
    """The first slab whose y-range holds y, or None in a gap."""
    return next((j for j, off in enumerate(model.offsets) if off <= y <= off + model.width), None)


def stage_map(model, point: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """One step of the stage map: slab j squeezes x onto [off_j, off_j + w]
    and stretches y across [-delta, delta], flipped when orientation j is -1."""
    x, y = point
    d, w = model.delta, model.width
    j = slab_of(model, y)
    assert j is not None, f"y = {y} lies in no slab"
    off = model.offsets[j]
    span = (y - off) * 2 * d / w
    return (off + (x + d) * w / (2 * d), -d + span if model.orientations[j] == 1 else d - span)


def stage_orbit(model, point: tuple[Fraction, Fraction], n: int) -> list[tuple[Fraction, Fraction]]:
    """Positions at times 0..n-1 under ``stage_map``."""
    pts = [point]
    for _ in range(n - 1):
        pts.append(stage_map(model, pts[-1]))
    return pts


def itinerary_point(model, itinerary: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """(0, y) with y the midpoint of the heights whose stage orbit visits slab
    itinerary[t] at each time t, found by inverting the stretch slab by slab."""
    d, w = model.delta, model.width
    lo, hi = -d, d
    for j in reversed(itinerary):
        off, up = model.offsets[j], model.orientations[j] == 1
        lo, hi = sorted(off + ((v + d) if up else (d - v)) * w / (2 * d) for v in (lo, hi))
    return (Fraction(0), (lo + hi) / 2)


def laid_out_by_hand(N: int, delta: Fraction, epsilon: Fraction, p: int,
                     width: Fraction | None = None) -> Horseshoe2DModel:
    """N slabs of height w spread evenly from -delta to delta (slab j at
    -delta + j*(2*delta - w)/(N - 1)), orientations +1, -1, ... from slab 0,
    built directly whatever w is.  w is ``width``, else 2*delta for one slab
    and (2*delta - N*epsilon)/(2*N) for more."""
    side = 2 * delta
    w = width if width is not None else side if N == 1 else (side - N * epsilon) / (2 * N)
    offsets = tuple(-delta + j * (side - w) / max(N - 1, 1) for j in range(N))
    return Horseshoe2DModel(N, p, delta, epsilon, w, offsets, tuple((-1)**j for j in range(N)))


def plane_dn(a: list[tuple[Fraction, Fraction]], b: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Sup over time of the plane's sup metric between two orbits."""
    return max(max(abs(p[0] - q[0]), abs(p[1] - q[1])) for p, q in zip(a, b))


# === reference objects ========================================================

# a hand-written 49/50 plan: its level lines are only compared after planning,
# and planning level 0 under the default node budget already refuses it
OVER_BUDGET_PLAN = ("fbeta-plan v1\nbeta = 49/50\nK = 1\nseed_a1 = 1/2\n"
                    "level 0: dummy\nlevel 1: dummy\n")


@pytest.fixture(scope="session")
def tent() -> PwaMap:
    return tent_map()


@pytest.fixture(scope="session")
def identity() -> PwaMap:
    return identity_map()


@pytest.fixture(scope="session")
def half_plan():
    """The two-level ratio-1/2 staircase plan used throughout the suite."""
    return plan_sequences(Fraction(1, 2), 1)


@pytest.fixture(scope="session")
def half_model(half_plan):
    return build_fbeta(half_plan)


# === acceptance reporting =====================================================

@pytest.fixture
def acceptance():
    """Record one PASS/FAIL line per criterion and assert it on the spot."""

    def record(ok: bool, text: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {text}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
