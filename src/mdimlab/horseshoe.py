"""Horseshoe detection for interval maps and planar baker models.

One-dimensional side: decompose a piecewise-affine map over a window into
maximal weakly-monotone laps, then keep a largest family of laps that all
cross a target core interval with margin and whose domains are pairwise far
apart in the interval (Hausdorff) distance.

Two-dimensional side: baker-style models on the square [-delta, delta]^2.
N horizontal slabs of height w are stretched affinely onto N full-height
vertical strips of width w (alternating orientation), and p identical
stages are chained cyclically.  Running the recursion for ell rounds yields
N**(p*ell) orbit segments that are pairwise (p*ell, epsilon)-separated in
the sup metric: y is read off the cylinders of the Markov view ``slab_view``,
whose premises (slab gaps above epsilon) certify the separation, and x steps
by ``apply_branch`` once per itinerary prefix, in exact rational arithmetic,
so the least distances are exact audits by direct evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ContractError,
    DomainError,
    ResourceError,
    SerializationError,
    VerificationError,
)
from .pwa import PwaMap
from .rational import (
    body_lines, format_interval, format_rational, parse_int, parse_interval, parse_rational,
    read_fields,
)
from .reporting import CheckResult, VerificationSummary
from .separation import MarkovBranch, MarkovView, _cylinder_rows, _least_distances

Interval = tuple[Fraction, Fraction]

REP_CAP_2D = 4096               # cap on certified representatives


# === 1-D lap detection =======================================================

@dataclass(frozen=True)
class Lap:
    """A maximal weakly-monotone piece of a map over a window.

    `img_lo`/`img_hi` are the exact extremes of the map over the domain
    (attained at the endpoints, by monotonicity).
    """

    lo: Fraction
    hi: Fraction
    increasing: bool
    img_lo: Fraction
    img_hi: Fraction

    @property
    def domain(self) -> Interval:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class Horseshoe1DReport:
    """Outcome of a 1-D horseshoe scan: the window, the crossing target,
    and the selected family of crossing laps."""

    interval: Interval
    core: Interval
    count: int                          # laps selected (the detected type N)
    laps: tuple[Lap, ...]               # the selected laps, left to right
    min_separation: Fraction | None     # smallest pairwise domain distance
    margin: Fraction | None             # realized crossing margin


def interval_distance(a: Interval, b: Interval) -> Fraction:
    """Hausdorff distance between two closed intervals:
    max(|lo difference|, |hi difference|)."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def monotone_laps(m: PwaMap, window: Interval) -> tuple[Lap, ...]:
    """Maximal weakly-monotone laps of `m` restricted to `window`.

    Plateaus extend the run in progress; a new lap starts at the shared
    node whenever the slope sign flips.
    """
    lo, hi = window
    if not (0 <= lo < hi <= 1):
        raise DomainError(f"window {format_interval(lo, hi)} is not a subinterval of [0, 1]")
    xs = [lo] + [x for x in m.xs if lo < x < hi] + [hi]
    ys = [m(x) for x in xs]

    def close(a: int, b: int, direction: int) -> Lap:
        va, vb = ys[a], ys[b]
        return Lap(xs[a], xs[b], direction >= 0, min(va, vb), max(va, vb))

    laps: list[Lap] = []
    start, direction = 0, 0
    for i in range(len(xs) - 1):
        step = ys[i + 1] - ys[i]
        sign = (step > 0) - (step < 0)
        if sign == 0 or sign == direction:
            continue
        if direction == 0:
            direction = sign
            continue
        laps.append(close(start, i, direction))
        start, direction = i, sign
    laps.append(close(start, len(xs) - 1, direction))
    return tuple(laps)


def detect_1d(
    m: PwaMap,
    interval: Interval,
    core: Interval,
    epsilon: Fraction,
    eta: Fraction = Fraction(0),
) -> Horseshoe1DReport:
    """Largest family of monotone laps of `m` over `interval` whose images
    all cover the eta-expanded `core` and whose domains are pairwise more
    than `epsilon` apart (interval Hausdorff distance).

    Laps are ordered left to right with both endpoints increasing, so the
    pairwise distance is smallest on consecutive laps and the left-to-right
    greedy sweep is maximal.
    """
    (i_lo, i_hi), (c_lo, c_hi) = interval, core
    if c_lo >= c_hi:
        raise DomainError(f"degenerate core {format_interval(c_lo, c_hi)}")
    if not (0 <= i_lo <= c_lo and c_hi <= i_hi <= 1):
        raise DomainError(
            f"need core {format_interval(c_lo, c_hi)} inside window "
            f"{format_interval(i_lo, i_hi)} inside [0, 1]"
        )
    if eta < 0:
        raise DomainError(f"margin eta must be nonnegative, got {format_rational(eta)}")
    if epsilon < 0:
        raise DomainError(f"separation epsilon must be nonnegative, got {format_rational(epsilon)}")

    target_lo, target_hi = c_lo - eta, c_hi + eta
    selected: list[Lap] = []
    for lap in monotone_laps(m, interval):
        if lap.img_lo > target_lo or lap.img_hi < target_hi:
            continue
        if selected and interval_distance(selected[-1].domain, lap.domain) <= epsilon:
            continue
        selected.append(lap)

    min_sep = min(
        (interval_distance(a.domain, b.domain) for a, b in zip(selected, selected[1:])),
        default=None,
    )
    margin = min((min(c_lo - lap.img_lo, lap.img_hi - c_hi) for lap in selected), default=None)
    return Horseshoe1DReport(interval, core, len(selected), tuple(selected), min_sep, margin)


def full_lap_view(m: PwaMap) -> MarkovView:
    """Markov view made of the map's monotone laps crossing all of [0, 1]
    (each lap must be a single affine piece, which the view re-checks)."""
    zero, one = Fraction(0), Fraction(1)
    report = detect_1d(m, (zero, one), (zero, one), zero)
    if report.count == 0:
        raise ContractError(
            "map has no monotone lap crossing [0, 1]; the cylinder method needs "
            "full laps — use the greedy method instead"
        )
    branches = tuple(MarkovBranch(l.lo, l.hi, l.increasing) for l in report.laps)
    return MarkovView(zero, one, branches, None, m, label="full laps")


# === 2-D baker model =========================================================

@dataclass(frozen=True)
class Horseshoe2DModel:
    """Baker-style model on the square [-delta, delta]^2.

    Horizontal slab j is [-delta, delta] x [offsets[j], offsets[j] + width];
    branch j stretches it affinely onto the full-height vertical strip
    [offsets[j], offsets[j] + width] x [-delta, delta], flipping vertically
    when orientations[j] == -1.  All p stages share this geometry and are
    chained cyclically.

    For N >= 2 it is no plane homeomorphism's restriction: a -1 branch flips
    y only (Jacobian determinant -1), a +1 branch has determinant +1, and a
    plane homeomorphism has one local degree everywhere.
    """

    N: int
    p: int
    delta: Fraction
    epsilon: Fraction
    width: Fraction
    offsets: tuple[Fraction, ...]
    orientations: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.N < 1 or self.p < 1:
            raise DomainError(f"need N >= 1 and p >= 1, got N={self.N}, p={self.p}")
        if self.delta <= 0 or self.epsilon <= 0:
            raise DomainError("delta and epsilon must be positive")
        if len(self.offsets) != self.N or len(self.orientations) != self.N:
            raise DomainError(f"expected {self.N} offsets and orientations")
        if any(o not in (-1, 1) for o in self.orientations):
            raise DomainError("orientation flags must be +1 or -1")

    def slab(self, j: int) -> tuple[Interval, Interval]:
        """Horizontal slab j as (x-range, y-range)."""
        off = self.offsets[j]
        return ((-self.delta, self.delta), (off, off + self.width))

    def strip(self, j: int) -> tuple[Interval, Interval]:
        """Vertical strip j (the image of slab j) as (x-range, y-range)."""
        off = self.offsets[j]
        return ((off, off + self.width), (-self.delta, self.delta))

    def apply_branch(self, j: int, point: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        """Affine branch j: squeeze x onto the strip, stretch y across it."""
        x, y = point
        off = self.offsets[j]
        x2 = off + (x + self.delta) * self.width / (2 * self.delta)
        span = (y - off) * 2 * self.delta / self.width
        y2 = -self.delta + span if self.orientations[j] == 1 else self.delta - span
        return (x2, y2)


def slab_view(model: Horseshoe2DModel) -> MarkovView:
    """The y-dynamics as a Markov view on [-delta, delta] at scale epsilon, no
    map: branch j is slab j's y-range, increasing iff orientation j is +1.
    The view refuses, with ContractError, slabs that overlap, leave the
    square or lie epsilon or less apart."""
    branches = tuple(MarkovBranch(off, off + model.width, o == 1)
                     for off, o in zip(model.offsets, model.orientations))
    return MarkovView(-model.delta, model.delta, branches, model.epsilon)


def build_model_2d(
    N: int,
    delta: Fraction,
    epsilon: Fraction,
    p: int,
    width: Fraction | None = None,
) -> Horseshoe2DModel:
    """Pack N horizontal slabs of height `width` into the square with equal
    gaps > epsilon and alternate branch orientations.

    Feasibility requires N*(width + epsilon) <= 2*delta with width > 0;
    the default width (2*delta - N*epsilon) / (2*N) spends half the slack
    on slabs.  A single slab (N = 1) has no gaps and fills the square.
    """
    if N < 1 or p < 1:
        raise DomainError(f"need N >= 1 and p >= 1, got N={N}, p={p}")
    if delta <= 0 or epsilon <= 0:
        raise DomainError("delta and epsilon must be positive")

    side = 2 * delta
    if N == 1:
        w = side if width is None else width
        if not 0 < w <= side:
            raise ContractError(
                f"single-slab width must satisfy 0 < w <= 2*delta = {format_rational(side)}, "
                f"got {format_rational(w)}"
            )
        offsets = (-delta,)
    else:
        if width is None:
            w = (side - N * epsilon) / (2 * N)
            if w <= 0:
                raise ContractError(
                    f"packing infeasible: N*epsilon = {format_rational(N * epsilon)} >= "
                    f"2*delta = {format_rational(side)} leaves no positive strip width"
                )
        else:
            w = width
            if w <= 0:
                raise ContractError(f"strip width must be positive, got {format_rational(w)}")
        if N * (w + epsilon) > side:
            raise ContractError(
                f"packing infeasible: N*(width + epsilon) = "
                f"{format_rational(N * (w + epsilon))} > 2*delta = {format_rational(side)}"
            )
        gap = (side - N * w) / (N - 1)              # > epsilon by the packing bound
        offsets = tuple(-delta + j * (w + gap) for j in range(N))
    orientations = tuple(1 if j % 2 == 0 else -1 for j in range(N))
    return Horseshoe2DModel(N, p, delta, epsilon, w, offsets, orientations)


# === 2-D verification ========================================================

def verify_conditions(model: Horseshoe2DModel) -> VerificationSummary:
    """Independently re-check the model geometry: width, packing, slabs inside
    the square and gaps.  strips-span-square is w > 0: ``apply_branch`` sends
    slab j's corners onto strip j's x-ends and the rim y = +-delta (algebra on
    the same offsets, width and delta).  Slab j1 crosses strip j2 iff both slabs
    lie in the square, so coherence's first uncrossed pair is (0, ``bad``)."""
    d, w, eps, n, checks = model.delta, model.width, model.epsilon, model.N, []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, ok, detail))

    check("width-positive", 0 < w <= 2 * d,
          f"width {format_rational(w)}, square side {format_rational(2 * d)}")
    if n == 1:
        check("packing", True, "single strip, no gaps required")
    else:
        used = n * (w + eps)
        check("packing", used <= 2 * d,
              f"N*(width + epsilon) = {format_rational(used)} vs 2*delta = {format_rational(2 * d)}")

    bad = next((j for j in range(n)
                if not (-d <= model.offsets[j] and model.offsets[j] + w <= d)), None)
    check("slabs-inside-square", bad is None,
          "" if bad is None else f"slab {bad} leaves the square")

    gap_fail = ""
    for j in range(n - 1):
        gap = model.offsets[j + 1] - (model.offsets[j] + w)
        if gap <= eps:
            gap_fail = (f"slabs {j} and {j + 1}: gap {format_rational(gap)} <= "
                        f"epsilon {format_rational(eps)}")
            break
    check("slab-gaps", not gap_fail, gap_fail)

    check("strips-span-square", w > 0,
          "" if w > 0 else "not evaluated: the branch maps need a positive width")
    check("coherence", bad is None, "" if bad is None else
          f"stage 0: slab 0 does not cross strip {bad} of stage {1 % model.p}")
    return VerificationSummary(tuple(checks))


# === separated families ======================================================

@dataclass(frozen=True)
class Certificate2D:
    """Representative points, one per depth-`steps` itinerary, (steps,
    epsilon)-separated by the slab view's premises, with exact audited minima."""

    model: Horseshoe2DModel
    ell: int
    steps: int                                   # p * ell
    count: int                                   # N ** steps
    itineraries: tuple[tuple[int, ...], ...]
    points: tuple[tuple[Fraction, Fraction], ...]
    per_point_min: tuple[Fraction | None, ...]   # min distance to any other point
    min_pairwise: Fraction | None

    @property
    def ratio(self) -> float:
        """log(count) / steps / |log epsilon| (0 for one representative, inf at epsilon 1)."""
        if self.count == 1:
            return 0.0
        la = abs(math.log(self.model.epsilon))
        return math.inf if la == 0 else math.log(self.count) / self.steps / la


def _orbit_rows(model: Horseshoe2DModel, view: MarkovView, steps: int
                ) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
    """The itineraries of depth ``steps`` and their orbit rows
    [y_0, x_1, y_1, ..., x_{steps-1}, y_{steps-1}] (x_0 = 0 on every row, so it
    is left out), in ``product`` order, as integer numerators over one
    denominator, returned with them.  The y-rows are ``view``'s cylinder rows
    (``_cylinder_rows``).  x_t depends only on the prefix w[:t], so the x-rows
    grow along the prefixes by appending ``apply_branch``'s x, and the x-row
    of a length-(steps−1) prefix serves the N itineraries that extend it."""
    n = model.N
    xs = [[Fraction(0)]]
    for _ in range(steps - 1):     # x_{t+1} does not depend on y_t: any y in slab j does
        xs = [[*row, model.apply_branch(j, (row[-1], model.offsets[j]))[0]]
              for row in xs for j in range(n)]
    ys, y_den = _cylinder_rows(view, steps)
    den = math.lcm(y_den, *(x.denominator for row in xs for x in row))
    x_rows = [[x.numerator * (den // x.denominator) for x in row] for row in xs]
    k = den // y_den
    rows = [[*itertools.chain.from_iterable(zip(x_row, (y * k for y in y_row)))][1:]
            for x_row, y_row in zip((row for row in x_rows for _ in range(n)), ys)]
    return list(itertools.product(range(n), repeat=steps)), rows, den


def separated_bound_2d(model: Horseshoe2DModel, ell: int) -> Certificate2D:
    """One representative per depth-(p*ell) itinerary w and its exact least
    distance to the others: y_t is mid C(w[t:]) in ``slab_view``, x_0 = 0 and
    x_{t+1} is ``apply_branch``'s x.  The rows hold the y-orbits, so the view's
    premises certify the family (``MarkovView``) and the minima are audits.
    Geometry the view refuses (slab gaps at or below epsilon among it) raises
    VerificationError with its reason before any row is built."""
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    steps = model.p * ell
    total = model.N ** steps
    if total > REP_CAP_2D:
        raise ResourceError(f"N**(p*ell) = {total} representatives exceed the cap {REP_CAP_2D}")

    try:
        view = slab_view(model)
    except ContractError as exc:
        raise VerificationError(f"slab view refused: {exc}") from None
    itineraries, rows, den = _orbit_rows(model, view, steps)

    # sup over time of the plane's sup metric = max over the flat row
    per_min = tuple(None if d is None else Fraction(d, den) for d in _least_distances(rows))
    min_pairwise = min((m for m in per_min if m is not None), default=None)
    return Certificate2D(model, ell, steps, total, tuple(itineraries),
                         tuple((Fraction(0), Fraction(r[0], den)) for r in rows), per_min,
                         min_pairwise)


# === serialization ===========================================================

MODEL2D_HEADER = "horseshoe-2d v1"
MODEL2D_SCALARS = ("N", "p", "delta", "epsilon", "width")


def dump_model_2d(model: Horseshoe2DModel) -> str:
    """Text form: scalar lines, then one `branch j slab lo:hi strip lo:hi
    orient +/-` line per branch (stages share the geometry)."""
    lines = [
        MODEL2D_HEADER,
        f"N {model.N}",
        f"p {model.p}",
        f"delta {format_rational(model.delta)}",
        f"epsilon {format_rational(model.epsilon)}",
        f"width {format_rational(model.width)}",
    ]
    for j in range(model.N):
        _, (y_lo, y_hi) = model.slab(j)
        (x_lo, x_hi), _ = model.strip(j)
        sign = "+" if model.orientations[j] == 1 else "-"
        lines.append(
            f"branch {j} slab {format_interval(y_lo, y_hi)} "
            f"strip {format_interval(x_lo, x_hi)} orient {sign}"
        )
    return "\n".join(lines) + "\n"


def load_model_2d(text: str) -> Horseshoe2DModel:
    lines = body_lines(text, MODEL2D_HEADER)
    branches: list[tuple[int, Interval, Interval, int]] = []
    for ln in lines:
        parts = ln.split()
        if parts[0] != "branch":
            continue
        if (len(parts) != 8 or parts[2] != "slab" or parts[4] != "strip"
                or parts[6] != "orient" or parts[7] not in ("+", "-")):
            raise SerializationError(f"bad branch line: {ln!r}")
        branches.append((
            parse_int(parts[1]),
            parse_interval(parts[3]),
            parse_interval(parts[5]),
            1 if parts[7] == "+" else -1,
        ))
    scalars = read_fields([ln for ln in lines if ln.split()[0] != "branch"],
                          MODEL2D_SCALARS, MODEL2D_SCALARS, "scalar")
    n = parse_int(scalars["N"])
    p = parse_int(scalars["p"])
    delta = parse_rational(scalars["delta"])
    epsilon = parse_rational(scalars["epsilon"])
    width = parse_rational(scalars["width"])
    if len(branches) != n or [b[0] for b in branches] != list(range(n)):
        raise SerializationError(f"expected branches 0..{n - 1} in order")
    offsets = []
    orientations = []
    for j, (y_lo, y_hi), (x_lo, x_hi), orient in branches:
        if y_lo != x_lo or y_hi - y_lo != width or x_hi - x_lo != width:
            raise SerializationError(f"branch {j}: slab/strip extents disagree with width")
        offsets.append(y_lo)
        orientations.append(orient)
    return Horseshoe2DModel(n, p, delta, epsilon, width, tuple(offsets), tuple(orientations))


CERTIFICATE_CSV_HEADER = "itinerary,x,y,min_pairwise_dn"


def certificate_to_csv(cert: Certificate2D) -> str:
    """One row per representative: dash-separated itinerary, exact
    coordinates, and its least distance to any other representative."""
    rows = [CERTIFICATE_CSV_HEADER]
    for itin, (x, y), dist in zip(cert.itineraries, cert.points, cert.per_point_min):
        rows.append(
            f"{'-'.join(str(s) for s in itin)},{format_rational(x)},{format_rational(y)},"
            f"{format_rational(dist) if dist is not None else ''}"
        )
    return "\n".join(rows) + "\n"
