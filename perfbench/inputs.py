"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the library comes from here, drawn from
``random.Random(seed)``: the same seed gives the same maps, plans and
configs.  The sizes are module constants so that ``meta.json`` and the
self-test can name them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

from mdimlab import PwaMap

# --- density ------------------------------------------------------------------

# beta 5/11 over two levels: 666 nodes, 5 + 107 branches, so that every CLI
# step of a pass takes under 0.5 s and a run times each step many times
# (beta 1/2 gives 2,823 nodes and 2-6 s steps)
DENSITY_BETA = "5/11"
DENSITY_LEVELS = 2
DENSITY_FLAT = (F(3, 20), F(17, 20))
DENSITY_INNER = (F(1, 4), F(3, 4))
DENSITY_OUTER = (F(1, 5), F(4, 5))
DENSITY_CENTER = F(1, 2)
# the implant's sup-distance from the host: it depends on the staircase and
# the windows only, so it is the same for every host seed
DENSITY_SUP_DISTANCE = F(47, 136)
HOST_DENOM = 40            # host nodes outside the flat sit on the 1/40 grid
HOST_SIDE_NODES = (1, 4)   # interior nodes on each side of the flat

# --- certify ------------------------------------------------------------------

# sizes chosen so that each certificate takes under 0.5 s (see DENSITY_BETA)
CERTIFY_BETA = F(4, 11)
CERTIFY_K = 1              # two levels: 116 nodes, 3 + 17 branches
CERTIFY_LEVEL = 1
CERTIFY_N = 2              # 17**2 = 289 representatives
SLABS, PERIOD, DEPTH = 3, 2, 2   # 3**(2*2) = 81 representatives
HALF_SIDE = F(1, 2)
SLAB_EPSILON = F(1, 16)
# every width keeps N*(w + eps) <= 2*delta and slab gaps > eps for N = 3
SLAB_WIDTHS = (F(1, 8), F(1, 10), F(1, 12), F(3, 20), F(1, 6), F(3, 16))
SAMPLED_PAIRS = 64         # pairs re-checked by direct d_n evaluation

# --- grid ---------------------------------------------------------------------

RANDOM_MAPS = 20
MAP_DENOM = 24
MAP_INTERIOR = (1, 4)
TENT_ITERATES = 12
TENT_GREEDY = (4, F(1, 1000))          # n, epsilon (grid epsilon/4)
MAP_GREEDY = (4, F(1, 200))
EXHAUSTIVE_POINTS = 14                 # the 1/13 grid
MAP_ITERATES = 4
PROFILE_SCALES = (F(1, 50), F(1, 100), F(1, 200))
PROFILE_WINDOW = (1, 3)


def random_map(rng: random.Random, denom: int = MAP_DENOM,
               interior: tuple[int, int] = MAP_INTERIOR) -> PwaMap:
    """Continuous piecewise-affine self-map with nodes on the 1/denom grid."""
    xs = sorted(rng.sample(range(1, denom), rng.randint(*interior)))
    nodes = [(F(0), F(rng.randint(0, denom), denom))]
    nodes += [(F(x, denom), F(rng.randint(0, denom), denom)) for x in xs]
    nodes.append((F(1), F(rng.randint(0, denom), denom)))
    return PwaMap.from_nodes(nodes)


def density_host(seed: int) -> PwaMap:
    """Identity on the flat interval, random on the 1/40 grid outside it."""
    rng = random.Random(seed)
    lo, hi = DENSITY_FLAT
    left = sorted(rng.sample(range(1, int(lo * HOST_DENOM)), rng.randint(*HOST_SIDE_NODES)))
    right = sorted(rng.sample(range(int(hi * HOST_DENOM) + 1, HOST_DENOM),
                              rng.randint(*HOST_SIDE_NODES)))
    value = lambda: F(rng.randint(0, HOST_DENOM), HOST_DENOM)  # noqa: E731
    nodes = [(F(0), value())]
    nodes += [(F(x, HOST_DENOM), value()) for x in left]
    nodes += [(lo, lo), (hi, hi)]
    nodes += [(F(x, HOST_DENOM), value()) for x in right]
    nodes.append((F(1), value()))
    return PwaMap.from_nodes(nodes)


def certify_width(seed: int) -> F:
    return random.Random(seed).choice(SLAB_WIDTHS)


@dataclass(frozen=True)
class SandwichCase:
    map: PwaMap
    n: int
    epsilon: F


@dataclass(frozen=True)
class GridInputs:
    maps: tuple[PwaMap, ...]
    sandwich: tuple[SandwichCase, ...]
    pairs: tuple[tuple[PwaMap, PwaMap], ...]


def grid_inputs(seed: int, count: int = RANDOM_MAPS) -> GridInputs:
    rng = random.Random(seed)
    maps = tuple(random_map(rng) for _ in range(count))
    # epsilon >= 4/13 keeps the 1/13 greedy grid at most epsilon/4
    sandwich = tuple(
        SandwichCase(m, rng.randint(1, 3), F(rng.randint(40, 129), 130)) for m in maps
    )
    pairs = tuple(zip(maps[::2], maps[1::2]))
    return GridInputs(maps, sandwich, pairs)
