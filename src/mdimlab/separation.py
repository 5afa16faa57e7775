"""Separated-set counting and entropy-at-scale estimation.

The dynamical metric is d_n(x,y) = max_{0<=i<n} |f^i(x) - f^i(y)|; a set is
(n,eps)-separated when every pair has d_n strictly greater than eps.  True
maximal separated cardinality over the continuum has no known efficient
algorithm under d_n, so counts are produced three ways and labeled by method:

* ``greedy-grid``      — greedy maximal separated subset of a uniform grid
                         (a certified lower bound relative to that grid);
* ``exhaustive-grid``  — exact maximum over an explicit point set (branch-
                         and-bound clique search, capped at 14 points);
* ``cylinder-exact``   — branch-itinerary counts B^n for maps declared
                         full-branch Markov on a marked core interval, whose
                         representative midpoints are separated at every n
                         by the view's premises when it declares a scale.

The greedy and exhaustive counts decide d_n(x,y) > eps on integer orbits
over one denominator per count, read off one stepper, ``_affine_runs``: it
pushes points through the map as runs, integer progressions that split at
the map's nodes and so stay inside one piece at every depth, each stepped
by ``pwa._integer_steps`` on the piece that ``pwa._locate``, the one search
of the map's node keys, finds; ``orbit`` and ``dn_distance`` evaluate
through the same search.  A run carries its whole orbit as one pair
(S_k, step_k) per depth, so inside a run d_n is the index gap times the
run's widest step.  The greedy count pushes its grid as one run and, past a
run's first eps in x, picks one ``range`` by stride; only the points within
eps of a run's ends get their orbit read off the run and a pointwise check.
The exhaustive count pushes each point as a run of one.

Both separated families (cylinders here, planar in ``horseshoe``) are
certified by the premises of a ``MarkovView``.  Their exact least distances
are audits, read off cylinder midpoints built on the itinerary tree as
integer rows over one denominator (``_cylinder_rows``) by one kernel,
``_least_distances``, which recurses on the itinerary tree: it groups the
rows by their last entry, each group by its next-to-last, and so on, and
compares across the groups of one node only where the entry they split on
leaves a pair closer than a best already found.

Rates h(f,eps) are least-squares slopes of log(count) against n over a
window, with the max single-step increment reported alongside as a second
growth proxy; ratios h/|log eps| feed the mean-dimension profiles.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, product
from operator import mul, sub

from .errors import (
    ContractError,
    DomainError,
    GridPrecisionError,
    ResourceError,
    SerializationError,
)
from .pwa import PwaMap, _integer_steps, _locate, eval_map, eval_sorted
from .rational import body_lines, format_interval, format_rational, parse_interval, parse_rational

METHOD_GREEDY = "greedy-grid"
METHOD_EXHAUSTIVE = "exhaustive-grid"
METHOD_CYLINDER = "cylinder-exact"
METHODS = (METHOD_GREEDY, METHOD_EXHAUSTIVE, METHOD_CYLINDER)

EXHAUSTIVE_POINT_CAP = 14       # exhaustive clique search point cap
GREEDY_GRID_CAP = 10**6         # greedy grid point cap
REPRESENTATIVE_CAP = 20000      # cylinder representative enumeration cap
COUNT_DIGIT_CAP = 4300          # decimal digits of a cylinder count (CPython's default str limit)
_COUNT_CAP = 10**COUNT_DIGIT_CAP - 1


# === records =================================================================

@dataclass(frozen=True)
class CountRecord:
    """One separated-set count: s(f, n, epsilon) bound/value by one method."""

    n: int
    epsilon: Fraction
    count: int
    method: str
    grid_resolution: Fraction | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DomainError(f"counts are always >= 1, got {self.count}")
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if self.method not in METHODS:
            raise DomainError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class ScaleRate:
    """Entropy estimate at one scale: counts over an n-window plus the rate."""

    epsilon: Fraction
    records: tuple[CountRecord, ...]
    h_hat: float                 # least-squares slope of log count vs n
    max_step: float              # max one-step log-count increment
    ratio: float                 # h_hat / |log epsilon|, clamped to [0,1]
    window: tuple[int, int]
    method: str


@dataclass(frozen=True)
class SeparationReport:
    """Per-scale rates plus tail-half upper/lower mean-dimension estimates."""

    entries: tuple[ScaleRate, ...]
    upper: float
    lower: float


# === dynamical metric ========================================================

def orbit(m: PwaMap, x: Fraction, n: int) -> list[Fraction]:
    """[x, f(x), ..., f^{n-1}(x)] by pointwise evaluation (no map iteration)."""
    if n < 1:
        raise DomainError(f"orbit needs n >= 1, got {n}")
    out = [Fraction(x)]
    if not 0 <= out[0] <= 1:
        raise DomainError(f"eval argument {out[0]} outside [0,1]")
    for _ in range(n - 1):
        out.append(eval_map(m, out[-1]))
    return out


def dn_distance(m: PwaMap, x: Fraction, y: Fraction, n: int) -> Fraction:
    """d_n(x,y) = max over the first n iterates of the pointwise distance."""
    if n < 1:
        raise DomainError(f"dn_distance needs n >= 1, got {n}")
    ox, oy = orbit(m, x, n), orbit(m, y, n)
    return max(abs(a - b) for a, b in zip(ox, oy))


# === greedy / exhaustive counting ===========================================

def _affine_runs(m: PwaMap, runs, den: int, n: int) -> tuple[list[tuple], int]:
    """The one integer orbit stepper: push runs of points through the map
    n − 1 times.  A run (first index, count, start, step) holds the points
    g = first .. first + count − 1 at (start + (g − first)·step)/den, and
    goes out as (first, count, orbit), orbit one pair (S_k, step_k) per
    depth k < n: point g's f^k-value is (S_k + g·step_k)/D, D = den·M^(n−1)
    (``pwa._integer_steps``), so two points g, g' of a run are exactly
    |g − g'|·max_k |step_k| apart in d_n.  A run whose two ends lie in one
    piece maps to one run by that piece's step; one that crosses nodes
    splits at each, by one floor division, into runs in index order (a point
    on a node goes to either side: the map is continuous).  Runs never
    outnumber points.  A run is refused when n < 1, or when an end (and so
    any point) lies outside [0, 1].  Returns the runs at depth n − 1 and D."""
    if n < 1:
        raise DomainError(f"orbit needs n >= 1, got {n}")
    for first, count, start, step in runs:
        for v in (start, start + (count - 1) * step):
            if not 0 <= v <= den:
                raise DomainError(f"eval argument {Fraction(v, den)} outside [0,1]")
    big_m, table = _integer_steps(m)
    last = len(table)
    nodes = [x.as_integer_ratio() for x in m.xs]
    runs = [(first, count, ((start - first * step, step),)) for first, count, start, step in runs]
    d = den
    for _ in range(n - 1):
        out = []
        for first, count, orbit in runs:
            base, step = orbit[-1]      # end = last puts x = 1 in the last piece
            p0 = p1 = _locate(m, base + first * step, d, 0, last)[1] - 1
            if count > 1:
                p1 = _locate(m, base + (first + count - 1) * step, d, 0, last)[1] - 1
            s = 1 if p1 > p0 else -1
            cuts = [first]
            for q in range(p0 + s, p1 + s, s):
                u, w = nodes[max(q, q - s)]     # the node between pieces q − s and q
                cuts.append((u * d - base * w) // (step * w) + 1)
            cuts.append(first + count)
            for q, i, j in zip(range(p0, p1 + s, s), cuts, cuts[1:]):
                if i < j:
                    a, b = table[q]
                    out.append((i, j - i, (*orbit, (a * base + b * d, a * step))))
        runs, d = out, d * big_m
    scales = [big_m**k for k in range(n - 1, -1, -1)]
    return [(first, count, [(b * c, t * c) for (b, t), c in zip(orbit, scales)])
            for first, count, orbit in runs], d


def _over_one_denominator(points: list[Fraction]) -> tuple[list[int], int]:
    """The points as integer numerators over the lcm of their denominators."""
    ratios = [Fraction(x).as_integer_ratio() for x in points]
    den = math.lcm(*(d for _, d in ratios))
    return [p * (den // d) for p, d in ratios], den


def _greedy_select(m: PwaMap, n: int, epsilon: Fraction, nums, den: int, runs) -> list[int]:
    """Indices of the greedy left-to-right (n,eps)-separated subset of the
    ascending points v/den, v in ``nums``, given as runs (first index, count,
    start, step) of ``nums`` (``_affine_runs``): the uniform grid is one run,
    any other point list one run per point.

    All orbits share one denominator D, so d_n <= eps exactly when the
    integer gap is at most L = floor(eps·D); and d_n >= |x − y|, so a point
    is compared only with chosen points at most eps away in x.  Inside one
    run every orbit entry S_k + g·step_k is affine in the index g, so two of
    its points j, j' are exactly |j − j'|·w apart in d_n, w = max_k |step_k|.
    Hence a point more than eps in x past its run's start is compared only
    within its run, and is chosen iff it lies at least r = L // w + 1
    indices past the last chosen point (a last choice before the run lies
    more than eps away in x, and w is at least the index spacing in x, so
    this holds there too): that stretch of the run is one ``range``.  Only
    each run's head (its points within eps in x of its start) and tail
    (within eps of its end) get their rows S_k + g·step_k read off the run,
    and the head is checked pointwise against the chosen points, all of them
    heads or tails, within eps in x."""
    runs, big_d = _affine_runs(m, runs, den, n)
    limit = epsilon.numerator * big_d // epsilon.denominator
    near = limit // (big_d // den)          # at most eps apart in x: v − v' <= near
    rows: dict[int, list[int]] = {}
    chosen: list[int] = []
    for first, count, orbit in runs:
        end = first + count
        head = bisect_right(nums, nums[first] + near, first, end)
        tail = max(head, bisect_left(nums, nums[end - 1] - near, first, end))
        for i in chain(range(first, head), range(tail, end)):
            rows[i] = [b + i * t for b, t in orbit]
        for i in range(first, head):
            o, x, ok = rows[i], nums[i], True
            for j in reversed(chosen):
                if x - nums[j] > near:
                    break           # this and all earlier points are far in x
                if max(map(abs, map(sub, o, rows[j]))) <= limit:
                    ok = False
                    break
            if ok:
                chosen.append(i)
        if head < end:
            r = limit // max(abs(t) for _, t in orbit) + 1
            chosen.extend(range(max(head, chosen[-1] + r), end, r))
    return chosen


def greedy_separated_points(
    m: PwaMap, n: int, epsilon: Fraction, points: list[Fraction]
) -> list[Fraction]:
    """Greedy left-to-right maximal (n,eps)-separated subset of sorted points."""
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    pts = sorted(points)
    nums, den = _over_one_denominator(pts)
    runs = [(i, 1, v, 0) for i, v in enumerate(nums)]
    return [pts[i] for i in _greedy_select(m, n, epsilon, nums, den, runs)]


def _grid(grid: Fraction, cap: int, what: str) -> tuple[range, int]:
    """Numerators and denominator of the uniform grid {0, g, 2g, ...} ∩ [0,1],
    refused with ResourceError before any point is built when it would hold
    more than ``cap`` points."""
    p, q = grid.as_integer_ratio()
    count = q // p + 1
    if count > cap:
        raise ResourceError(f"{what} capped at {cap} points, got {count}")
    return range(0, count * p, p), q


def count_separated_greedy(
    m: PwaMap, n: int, epsilon: Fraction, grid: Fraction
) -> CountRecord:
    """Greedy separated count over the uniform grid {0, g, 2g, ...} ∩ [0,1].

    The grid must resolve the scale (g <= eps/4), otherwise the grid count
    says nothing about eps-separation and we refuse; it may hold at most
    GREEDY_GRID_CAP points.
    """
    if n < 1:
        raise DomainError(f"count_separated_greedy needs n >= 1, got {n}")
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if grid <= 0 or grid > epsilon / 4:
        raise GridPrecisionError(
            f"grid resolution {grid} is coarser than epsilon/4 = {epsilon / 4}"
        )
    nums, den = _grid(grid, GREEDY_GRID_CAP, "greedy grid")
    selected = _greedy_select(m, n, epsilon, nums, den, [(0, len(nums), 0, nums.step)])
    return CountRecord(n, epsilon, len(selected), METHOD_GREEDY, grid)


def _max_clique(adj: list[int], cand: int, size: int, best: int) -> int:
    """Largest clique among the ``cand`` bits, grown from one of ``size``:
    branch on the top candidate (taken, then dropped), pruning any branch
    that cannot beat ``best``.  Recursion depth is at most the bit count."""
    if not cand:
        return max(size, best)
    if size + cand.bit_count() <= best:
        return best
    i = cand.bit_length() - 1
    best = _max_clique(adj, cand & adj[i], size + 1, best)
    return _max_clique(adj, cand ^ (1 << i), size, best)


def count_separated_exhaustive(
    m: PwaMap, n: int, epsilon: Fraction, points: list[Fraction]
) -> CountRecord:
    """True maximal separated cardinality within the given points (<= 14)."""
    if n < 1:
        raise DomainError(f"count_separated_exhaustive needs n >= 1, got {n}")
    if not points:
        raise DomainError("point set must be nonempty")
    k = len(points)
    if k > EXHAUSTIVE_POINT_CAP:
        raise ResourceError(f"exhaustive scan capped at {EXHAUSTIVE_POINT_CAP} points, got {k}")
    nums, den = _over_one_denominator(points)
    runs, big_d = _affine_runs(m, [(i, 1, v, 0) for i, v in enumerate(nums)], den, n)
    orbits = [[b for b, _ in orbit] for *_, orbit in runs]      # count-1 runs: step 0
    limit = epsilon.numerator * big_d // epsilon.denominator
    # adjacency bitmasks: bit j of adj[i] set iff d_n(p_i, p_j) > eps
    adj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if max(map(abs, map(sub, orbits[i], orbits[j]))) > limit:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return CountRecord(n, epsilon, _max_clique(adj, (1 << k) - 1, 0, 0), METHOD_EXHAUSTIVE)


def _least_distances(rows: list[list[int]]) -> list[int | None]:
    """Each integer row's exact least sup-norm distance to any other row
    (None for a lone row), by a sweep that recurses on the itinerary tree.

    Rows that agree after entry t are sorted by entry t, from the last entry
    down; rows with equal entry t form a group, which recurses on entry
    t − 1 (past entry 0 its rows are equal, at distance 0).  Each row then
    scans the other groups right, then left, and stops at the first row
    whose entry t is its current best or more away.  A distance found
    scanning right lowers both rows' bests; scanning left skips the rows
    whose right scan already reached this one.

    Exactness needs only that any entry bounds the sup distance from below,
    no view premise, so the audit stays independent of the proof it audits.
    A best is a distance to another row, never below the row's least
    distance m, reached at a row s.  The recursion finds an s in the row's
    group.  Otherwise the scan toward s reaches it (or s's right scan
    reached this row first), unless it stops at a row no nearer than s in
    entry t, at a gap of at least the best; that gap is at most d(row, s) =
    m, so the best is m already.  A cylinder row's entry t is mid C(w[t:]),
    so the groups are the subtrees of the itinerary tree."""
    best: list[float | int] = [math.inf] * len(rows)

    def sweep(group: list[int], t: int) -> None:
        if t < 0:                   # equal on every entry
            for i in group:
                best[i] = 0
            return
        group.sort(key=lambda i: rows[i][t])
        keys = [rows[i][t] for i in group]
        k = len(group)
        edges = [0, *(p for p in range(1, k) if keys[p] != keys[p - 1]), k]
        reach = [0] * k             # where each row's right scan stopped
        for lo, hi in zip(edges, edges[1:]):
            if hi - lo > 1:
                sweep(group[lo:hi], t - 1)
            for p in range(lo, hi):
                i = group[p]
                a, key, low, q = rows[i], keys[p], best[i], hi
                while q < k and keys[q] - key < low:
                    j = group[q]
                    d = max(map(abs, map(sub, a, rows[j])))
                    if d < low:
                        low = d
                    if d < best[j]:
                        best[j] = d
                    q += 1
                reach[p] = q
                for q in range(lo - 1, -1, -1):
                    if key - keys[q] >= low:
                        break
                    if reach[q] <= p:
                        d = max(map(abs, map(sub, a, rows[group[q]])))
                        if d < low:
                            low = d
                best[i] = low

    if rows:
        sweep(list(range(len(rows))), len(rows[0]) - 1)
    return [None if d == math.inf else d for d in best]


# === full-branch Markov views ===============================================

@dataclass(frozen=True)
class MarkovBranch:
    lo: Fraction
    hi: Fraction
    increasing: bool


@dataclass(frozen=True)
class MarkovView:
    """A family of affine full branches onto a common core interval.

    Each branch maps [lo, hi] affinely ONTO [core_lo, core_hi] (increasing or
    decreasing).  The constructor holds three premises and refuses a view
    that breaks one with ContractError: the branch domains ascend, and a
    ``separation_scale``, when one is set, is positive and below every gap
    between them; every branch is full and affine; and every branch domain
    lies inside the core, so each cylinder lies inside its first branch.
    ``map`` optionally ties the view to the PwaMap realizing it, in which
    case each branch is checked to equal the map on its domain, so orbits
    along the branches are the map's orbits.

    The premises are the separation certificate.  Let the itineraries w, w'
    of two depth-n representatives first differ at time t.  At time t the
    orbits are at mid C(w[t:]) and mid C(w'[t:]), inside the branch domains
    w_t != w'_t (a cylinder lies in its first branch), so they are at least
    the least domain gap apart in d_n, and that gap is above the scale.  So
    every view made with a scale is separated at every depth n, and
    ``verify_cylinder_separation`` is an exact audit.  The planar rows
    [y_0, x_1, y_1, ...] of ``horseshoe`` hold a slab view's y-orbits, so
    the same argument covers them.
    """

    core_lo: Fraction
    core_hi: Fraction
    branches: tuple[MarkovBranch, ...]
    separation_scale: Fraction | None = None
    map: PwaMap | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.core_lo >= self.core_hi:
            raise ContractError(f"degenerate core [{self.core_lo}, {self.core_hi}]")
        if not self.branches:
            raise ContractError("a Markov view needs at least one branch")
        scale = self.separation_scale
        if scale is not None and scale <= 0:
            raise ContractError(f"separation scale must be positive, got {scale}")
        # the gaps are decided on integer (numerator, denominator) pairs
        sn, sd = (0, 1) if scale is None else scale.as_integer_ratio()
        prev = None
        for br in self.branches:
            (ln, ld), (hn, hd) = br.lo.as_integer_ratio(), br.hi.as_integer_ratio()
            if ln * hd >= hn * ld:
                raise ContractError(f"degenerate branch domain [{br.lo}, {br.hi}]")
            if prev is not None:
                pn, pd = prev
                gn, gd = ln * pd - pn * ld, ld * pd         # gap = lo - previous hi
                if gn < 0:
                    raise ContractError("branch domains overlap")
                if scale is not None and gn * sd <= sn * gd:
                    raise ContractError(
                        f"branch domain gap {Fraction(gn, gd)} not above the declared"
                        f" separation scale {scale}"
                    )
            prev = hn, hd
        # the domains ascend, so only the outermost two ends can leave the core
        first, last = self.branches[0], self.branches[-1]
        out = first if first.lo < self.core_lo else last if last.hi > self.core_hi else None
        if out is not None:
            raise ContractError(
                f"branch [{out.lo}, {out.hi}] leaves the core [{self.core_lo}, {self.core_hi}]"
            )
        if self.map is not None:
            self._check_against_map()

    def _check_against_map(self) -> None:
        """Each branch equals the map on its domain: its end values are the
        core ends, and hi is at most the least map node above lo, the one that
        ends lo's piece, m.xs[hi] for the count hi of nodes at or below lo
        (``pwa._locate``; lo < hi <= 1).  One ``eval_sorted`` values the
        ascending branch ends (DomainError for one outside [0, 1]).  The
        error names the first failing branch in branch order."""
        m = self.map
        values = eval_sorted(m, [x for br in self.branches for x in (br.lo, br.hi)])
        for k, br in enumerate(self.branches):
            got = tuple(values[2 * k:2 * k + 2])
            want = (self.core_lo, self.core_hi) if br.increasing else (self.core_hi, self.core_lo)
            if got != want:
                raise ContractError(
                    f"branch [{br.lo}, {br.hi}] does not map onto the core:"
                    f" endpoint values ({got[0]}, {got[1]}), expected {want}"
                )
            node = m.xs[_locate(m, *br.lo.as_integer_ratio())[1]]
            if node < br.hi:
                raise ContractError(f"branch [{br.lo}, {br.hi}] is not affine: map node at {node}")

    @property
    def branch_count(self) -> int:
        return len(self.branches)


def _refuse_over_cap(base: int, exp: int, cap: int, refusal: str) -> None:
    """ResourceError(refusal.format(count)) when the count base**exp is over cap, named in
    decimal up to 10**18, else as ``base**exp``.  As base**exp >= 2**((bits(base) − 1)·exp), no
    power past twice the bits of cap or 10**18 is built.  A base < 2 or an exp < 1 counts 1."""
    if base > 1 and (base.bit_length() - 1) * exp >= max(cap, 10**18).bit_length():
        raise ResourceError(refusal.format(f"{base}**{exp}"))
    count = base**exp if base > 1 and exp > 0 else 1
    if count > cap:
        raise ResourceError(refusal.format(count if count <= 10**18 else f"{base}**{exp}"))


def _branch_inverse(view: MarkovView, br: MarkovBranch) -> tuple[Fraction, Fraction]:
    """(slope, offset) of the affine map from the core onto ``br``'s domain
    that inverts the branch."""
    s = (br.hi - br.lo) / (view.core_hi - view.core_lo)
    if br.increasing:
        return s, br.lo - view.core_lo * s
    return -s, br.lo + view.core_hi * s


def _cylinder_rows(view: MarkovView, n: int) -> tuple[list[list[int]], int]:
    """The orbit [mid C(w[t:]) for t < n] of the representative of every
    depth-n itinerary w, in ``product`` order, as integer rows over one
    denominator, returned with them.  Branch w_t maps C(w[t:]) affinely onto
    C(w[t+1:]), midpoint to midpoint, so the rows grow on the itinerary tree
    by prepending: the row of j·w' is the inverse of branch j applied to the
    head of w''s row, then that row.  The view holds every branch domain
    inside the core, so every cylinder lies inside its branch.

    The inverses are integer pairs (σ_j, γ_j) over one denominator D and
    the core's midpoint is p/q, so a depth-d head lies over q·D^d and
    prepending j is σ_j·head + γ_j·q·D^d.  Entry t is the depth-(n − t) head:
    scaled by D^t, every entry lies over q·D^n.  Refuses a depth over the
    cap before anything is built."""
    if n < 0:
        raise DomainError(f"cylinder depth must be >= 0, got {n}")
    _refuse_over_cap(view.branch_count, n, REPRESENTATIVE_CAP,
                     f"{{}} depth-{n} cylinders exceed the representative cap {REPRESENTATIVE_CAP}")
    inverses = [_branch_inverse(view, br) for br in view.branches]
    big_d = math.lcm(*(v.denominator for pair in inverses for v in pair))
    steps = [tuple(v.numerator * (big_d // v.denominator) for v in pair) for pair in inverses]
    mid, den = ((view.core_lo + view.core_hi) / 2).as_integer_ratio()
    rows = [[mid]]                  # the depth-0 cylinder is the core
    for _ in range(n):
        rows = [[s * row[0] + c * den, *row] for s, c in steps for row in rows]
        den *= big_d
    # at time n every orbit is at the core's midpoint: scaling drops it
    scales = [big_d**t for t in range(n)]
    return [list(map(mul, row, scales)) for row in rows], den


def cylinder_representatives(view: MarkovView, n: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """(itinerary, cylinder midpoint) for every depth-n itinerary: the heads
    of the ``_cylinder_rows`` rows, or the core's midpoint at depth 0."""
    rows, den = _cylinder_rows(view, n)
    heads = [Fraction(row[0], den) for row in rows] if n else [(view.core_lo + view.core_hi) / 2]
    return list(zip(product(range(view.branch_count), repeat=n), heads))


def count_cylinders(view: MarkovView, n: int, epsilon: Fraction | None = None) -> CountRecord:
    """Exact depth-n cylinder count B^n for a full-branch Markov view.

    The record's scale is the view's declared separation scale unless an
    explicit epsilon is passed: at most the declared scale, which the
    premises certify with every smaller one (ContractError above it), or any
    epsilon for a view that declares none (e.g. rating a non-separated
    family like the tent's two touching branches at an external scale).
    """
    if n < 0:
        raise DomainError(f"count_cylinders needs n >= 0, got {n}")
    scale = view.separation_scale
    eps = epsilon if epsilon is not None else scale
    if eps is None:
        raise DomainError("no scale: view declares none and no epsilon was passed")
    if scale is not None and eps > scale:
        raise ContractError(f"epsilon {eps} above the scale {scale} of view {view.label!r}")
    _refuse_over_cap(view.branch_count, n, _COUNT_CAP,
                     f"{{}} depth-{n} cylinders: a count over {COUNT_DIGIT_CAP} digits")
    return CountRecord(n, eps, view.branch_count**n, METHOD_CYLINDER)


def verify_cylinder_separation(view: MarkovView, n: int) -> Fraction:
    """The exact least pairwise d_n over the depth-n representatives, n >= 1
    (the core length for one branch: nothing to separate).  It audits the
    view's premises, which put it above the scale (``MarkovView``).

    The rows are the representatives' orbits (``_cylinder_rows``).  With an
    attached map these are the map's orbits too, since
    ``MarkovView`` checked that each branch domain lies in the core and that
    the map equals each branch on its domain.  Raises ContractError for a
    view that declares no scale.
    """
    if view.separation_scale is None:
        raise ContractError("view declares no separation scale to certify against")
    if n < 1:
        raise DomainError(f"verify_cylinder_separation needs n >= 1, got {n}")
    rows, den = _cylinder_rows(view, n)
    best = min(_least_distances(rows))
    return view.core_hi - view.core_lo if best is None else Fraction(best, den)


# === rates and profiles ======================================================

def _least_squares_slope(ns: list[int], logs: list[float]) -> float:
    k = len(ns)
    nbar = sum(ns) / k
    ybar = sum(logs) / k
    num = sum((n - nbar) * (y - ybar) for n, y in zip(ns, logs))
    den = sum((n - nbar) ** 2 for n in ns)
    return num / den


def count_at(
    source: PwaMap | MarkovView,
    n: int,
    epsilon: Fraction,
    method: str,
    grid: Fraction | None = None,
) -> CountRecord:
    """One (n, epsilon) count by the named method — the unit of work that
    profiles and sweeps fan out over.  Cylinder counts take no grid, others
    one in (0, 1]; the exhaustive record carries the grid it scanned."""
    if method == METHOD_CYLINDER:
        if grid is not None:
            raise DomainError("cylinder counts take no grid")
        if not isinstance(source, MarkovView):
            raise DomainError("cylinder method needs a MarkovView source")
        return count_cylinders(source, n, epsilon)
    if grid is not None and not 0 < grid <= 1:
        raise DomainError(f"grid resolution must lie in (0, 1], got {grid}")
    if method == METHOD_GREEDY:
        if not isinstance(source, PwaMap):
            raise DomainError("greedy method needs a PwaMap source")
        return count_separated_greedy(source, n, epsilon, epsilon / 4 if grid is None else grid)
    if method == METHOD_EXHAUSTIVE:
        if not isinstance(source, PwaMap):
            raise DomainError("exhaustive method needs a PwaMap source")
        g = Fraction(1, EXHAUSTIVE_POINT_CAP - 1) if grid is None else grid
        nums, den = _grid(g, EXHAUSTIVE_POINT_CAP, "exhaustive scan")
        record = count_separated_exhaustive(source, n, epsilon, [Fraction(v, den) for v in nums])
        return replace(record, grid_resolution=g)
    raise DomainError(f"unknown method {method!r}")


def rate_from_records(
    epsilon: Fraction,
    records: list[CountRecord],
    n_window: tuple[int, int],
    method: str,
) -> ScaleRate:
    """Fit an entropy-at-scale estimate to precomputed counts.

    h_hat is the least-squares slope of log(count) against n; max_step is
    the largest single-step increment (a finite-window stand-in for the
    limsup).  ratio = h_hat/|log eps| is clamped to [0,1], the box-dimension
    range for interval maps.
    """
    ns = [r.n for r in records]
    logs = [math.log(r.count) for r in records]
    h_hat = _least_squares_slope(ns, logs)
    max_step = max(b - a for a, b in zip(logs, logs[1:]))
    log_eps = abs(math.log(epsilon))
    ratio = min(max(h_hat / log_eps, 0.0), 1.0)
    return ScaleRate(epsilon, tuple(records), h_hat, max_step, ratio, n_window, method)


def check_scales(scales: list[Fraction]) -> None:
    if not scales:
        raise DomainError("scales list is empty")
    for s in scales:
        if not 0 < s < 1:
            raise DomainError(f"scales must lie in (0,1), got {s}")
    for a, b in zip(scales, scales[1:]):
        if not b < a:
            raise DomainError(f"scales must strictly decrease: {a} then {b}")


def mdim_profile(
    sources: PwaMap | MarkovView | list[PwaMap | MarkovView],
    scales: list[Fraction],
    n_window: tuple[int, int],
    method: str,
    grid: Fraction | None = None,
    workers: int = 1,
) -> SeparationReport:
    """Ratio profile over strictly decreasing scales.

    ``sources`` may be a single source shared across scales or one source
    per scale (e.g. per-level Markov views at their own scales).  The scales,
    the n-window and ``workers >= 1`` are checked before any count runs.
    With ``workers > 1`` the greedy and exhaustive (scale, n) counts fan out
    over that many worker processes; cylinder counts are B**n, so they run
    in-process rather than pickling a view and its map.  The report is the
    same for any ``workers``.  The tail half of the scale list (the smallest
    scales) gives the upper (max ratio) and lower (min ratio) estimates.
    """
    check_scales(scales)
    if isinstance(sources, list):
        if len(sources) != len(scales):
            raise DomainError(
                f"{len(sources)} sources for {len(scales)} scales"
            )
        per_scale = sources
    else:
        per_scale = [sources] * len(scales)
    n_min, n_max = n_window
    if not (n_max > n_min >= 1):
        raise DomainError(f"need n_max > n_min >= 1, got window {n_window}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    jobs = [
        (src, n, eps, method, grid)
        for src, eps in zip(per_scale, scales)
        for n in range(n_min, n_max + 1)
    ]
    if workers > 1 and method != METHOD_CYLINDER:
        from concurrent import futures     # imported only where a pool runs

        with futures.ProcessPoolExecutor(min(workers, len(jobs))) as pool:
            records = list(pool.map(count_at, *zip(*jobs)))
    else:
        records = [count_at(*job) for job in jobs]
    width = n_max - n_min + 1
    entries = tuple(
        rate_from_records(eps, records[i * width : (i + 1) * width], n_window, method)
        for i, eps in enumerate(scales)
    )
    tail = entries[len(entries) // 2 :]
    return SeparationReport(entries, max(e.ratio for e in tail), min(e.ratio for e in tail))


# === export ==================================================================

CSV_HEADER = "epsilon,n,count,method,grid,h_hat,ratio"


def _sig12(x: float) -> str:
    return f"{x:.12g}"


def report_to_csv(report: SeparationReport) -> str:
    """CSV rows sorted by (epsilon, n, method): exact fractions for the
    scale columns, 12-significant-digit decimals for the fitted columns."""
    rows = []
    for entry in report.entries:
        for rec in entry.records:
            rows.append((
                rec.epsilon, rec.n, rec.method,
                f"{format_rational(rec.epsilon)},{rec.n},{rec.count},{rec.method},"
                f"{format_rational(rec.grid_resolution) if rec.grid_resolution is not None else ''},"
                f"{_sig12(entry.h_hat)},{_sig12(entry.ratio)}"
            ))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return "\n".join([CSV_HEADER] + [r[3] for r in rows]) + "\n"


def report_to_json(report: SeparationReport) -> dict:
    return {
        "upper": report.upper,
        "lower": report.lower,
        "entries": [
            {
                "epsilon": format_rational(e.epsilon),
                "h_hat": e.h_hat,
                "max_step": e.max_step,
                "ratio": e.ratio,
                "window": list(e.window),
                "method": e.method,
                "records": [
                    {
                        "n": r.n,
                        "count": r.count,
                        "method": r.method,
                        "grid": format_rational(r.grid_resolution)
                        if r.grid_resolution is not None
                        else None,
                    }
                    for r in e.records
                ],
            }
            for e in report.entries
        ],
    }


# === views serialization =====================================================

VIEWS_HEADER = "markov-views v1"


def dump_views(views: tuple[MarkovView, ...] | list[MarkovView]) -> str:
    """Geometry-only text form: core, scale ('-' when undeclared), optional
    label, then one branch line per branch.  Attached maps are not stored;
    loaded views count cylinders through the branch geometry alone."""
    lines = [VIEWS_HEADER]
    for v in views:
        scale = "-" if v.separation_scale is None else format_rational(v.separation_scale)
        head = f"view core {format_interval(v.core_lo, v.core_hi)} scale {scale}"
        if v.label:
            head += f" label {v.label}"
        lines.append(head)
        for b in v.branches:
            way = "up" if b.increasing else "down"
            lines.append(f"branch {way} {format_interval(b.lo, b.hi)}")
    return "\n".join(lines) + "\n"


def _unit_interval(text: str, ln: str) -> tuple[Fraction, Fraction]:
    lo, hi = parse_interval(text)
    if lo < 0 or hi > 1:
        raise SerializationError(f"domain outside [0, 1]: {ln!r}")
    return lo, hi


def load_views(text: str) -> tuple[MarkovView, ...]:
    """Read the whole file, each view line with its branch lines, then make
    the views in file order: a syntax fault anywhere is named first."""
    rows: list[tuple] = []              # (core lo, core hi, scale, label, branches)
    for ln in body_lines(text, VIEWS_HEADER):
        parts = ln.split()
        if parts[0] == "view":
            if len(parts) < 5 or parts[1] != "core" or parts[3] != "scale":
                raise SerializationError(f"bad view line: {ln!r}")
            label = ""
            if len(parts) > 5:
                label = ln.partition(" label ")[2]
                if parts[5] != "label" or not label:
                    raise SerializationError(f"bad view line: {ln!r}")
            core = _unit_interval(parts[2], ln)
            rows.append((*core, None if parts[4] == "-" else parse_rational(parts[4]), label, []))
        elif parts[0] == "branch":
            if not rows or len(parts) != 3 or parts[1] not in ("up", "down"):
                raise SerializationError(f"bad branch line: {ln!r}")
            rows[-1][-1].append(MarkovBranch(*_unit_interval(parts[2], ln), parts[1] == "up"))
        else:
            raise SerializationError(f"bad line: {ln!r}")
    if not rows:
        raise SerializationError("no views in file")
    views = []
    for lo, hi, scale, label, branches in rows:
        if not branches:
            raise SerializationError(f"view {label!r} has no branch lines")
        views.append(MarkovView(lo, hi, tuple(branches), scale, None, label))
    return tuple(views)
