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
by the same view's branch inverses with their sign dropped, once per
itinerary prefix.  Both are exact integers over one denominator, so the
least distances are exact audits by direct evaluation.  ``build_model_2d``
refuses a layout by the width-positive or packing line of ``verify_conditions``
that it fails; the other four lines hold for every model it builds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .errors import (
    ContractError,
    DomainError,
    SerializationError,
    VerificationError,
)
from .pwa import PwaMap, _window, eval_sorted
from .rational import (
    body_lines, format_interval, format_rational, parse_int, parse_rational, read_fields,
    require_rebuilt,
)
from .reporting import CheckResult, VerificationSummary, first
from .separation import (MarkovBranch, MarkovView, _cylinder_rows, _integer_inverses,
                         _least_distances, _refuse_over_cap)

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


def monotone_laps(m: PwaMap, window: Interval) -> tuple[Lap, ...]:
    """Maximal weakly-monotone laps of `m` restricted to `window`.

    Plateaus extend the run in progress; a new lap starts at the shared
    node whenever the slope sign flips: the sign of the step's piece's integer
    slope in the map's node table.  A lap's image ends are its end values.
    """
    lo, hi = window
    if not (0 <= lo < hi <= 1):
        raise DomainError(f"window {format_interval(lo, hi)} is not a subinterval of [0, 1]")
    inside = _window(m, lo, hi)[1]
    y_lo, y_hi = eval_sorted(m, (lo, hi))
    xs, ys = [lo, *m.xs[inside], hi], [y_lo, *m.ys[inside], y_hi]
    ends, ups = [0], []          # the laps' end nodes, and each sloped lap's direction
    for i, (a, _, _) in enumerate(m._pieces[inside.start - 1:inside.stop]):
        sign = (a > 0) - (a < 0)
        if sign and (not ups or sign != ups[-1]):
            if ups:              # a flip: the lap so far ends at node i, the next starts there
                ends.append(i)
            ups.append(sign)
    ends.append(len(xs) - 1)     # a window without a slope is one increasing lap
    return tuple(Lap(xs[a], xs[b], up > 0, *(ys[a], ys[b])[::up])     # image ends, low first
                 for a, b, up in zip(ends, ends[1:], ups or [1]))


# (numerator, denominator) pairs, denominators positive, ordered by cross-multiplication
_exact = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _minus(a: tuple[int, int], b: tuple[int, int]):
    """a − b for (numerator, denominator) pairs, as an ``_exact`` key."""
    return _exact((a[0] * b[1] - b[0] * a[1], a[1] * b[1]))


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

    Laps are ordered left to right with both endpoints increasing, so lap b's
    distance from an earlier lap a is max(b.lo - a.lo, b.hi - a.hi), smallest on
    consecutive laps, and the left-to-right greedy sweep is maximal.  A lap's
    room min(c_lo - img_lo, img_hi - c_hi) is at least eta iff it covers the
    expanded core, and the margin is the least room kept.  Every compare is on
    (numerator, denominator) pairs; only the two reported values are Fractions.
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

    c_lo, c_hi = c_lo.as_integer_ratio(), c_hi.as_integer_ratio()
    eps, eta = _exact(epsilon.as_integer_ratio()), _exact(eta.as_integer_ratio())
    selected, gaps, rooms = [], [], []  # gaps[k]: selected lap k + 1's distance from lap k
    for lap in monotone_laps(m, interval):
        room = min(_minus(c_lo, lap.img_lo.as_integer_ratio()),
                   _minus(lap.img_hi.as_integer_ratio(), c_hi))
        if room < eta:
            continue
        lo, hi = lap.lo.as_integer_ratio(), lap.hi.as_integer_ratio()
        if selected:
            gap = max(_minus(lo, last[0]), _minus(hi, last[1]))
            if gap <= eps:
                continue
            gaps.append(gap)
        selected.append(lap)
        rooms.append(room)
        last = lo, hi
    least = (Fraction(*min(keys).obj) if keys else None for keys in (gaps, rooms))
    return Horseshoe1DReport(interval, core, len(selected), tuple(selected), *least)


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


def slab_view(model: Horseshoe2DModel) -> MarkovView:
    """The y-dynamics as a Markov view on [-delta, delta] at scale epsilon, no
    map: branch j is slab j's y-range, increasing iff orientation j is +1.
    The view refuses, with ContractError, slabs that overlap, leave the
    square or lie epsilon or less apart."""
    branches = tuple(MarkovBranch(off, off + model.width, o == 1)
                     for off, o in zip(model.offsets, model.orientations))
    return MarkovView(-model.delta, model.delta, branches, model.epsilon)


def _packing_checks(N: int, delta: Fraction, eps: Fraction, w: Fraction) -> tuple[CheckResult, ...]:
    """``verify_conditions``' width-positive and packing lines, read off the scalars alone."""
    side, used = 2 * delta, N * (w + eps)
    return (CheckResult("width-positive", 0 < w <= side,
                        f"width {format_rational(w)}, square side {format_rational(side)}"),
            CheckResult("packing", True, "single strip, no gaps required") if N == 1 else
            CheckResult("packing", used <= side, f"N*(width + epsilon) = {format_rational(used)} "
                                                 f"vs 2*delta = {format_rational(side)}"))


def build_model_2d(
    N: int,
    delta: Fraction,
    epsilon: Fraction,
    p: int,
    width: Fraction | None = None,
) -> Horseshoe2DModel:
    """Pack N horizontal slabs of height `width` into the square with equal
    gaps and alternate branch orientations.

    The default width is 2*delta for one slab, else (2*delta - N*epsilon) / (2*N),
    half the slack spent on slabs.  A width that fails the width-positive or
    packing line of ``verify_conditions`` is refused with ContractError naming
    that line, before any slab is laid out.  The other four lines hold for every
    layout built: for N >= 2, w > 0 and N*(w + epsilon) <= 2*delta give the gap
    (2*delta - N*w)/(N - 1) >= N*epsilon/(N - 1) > epsilon, and the slabs run
    exactly from -delta to delta; for N = 1, 0 < w <= 2*delta puts the one slab
    inside the square.
    """
    delta, epsilon = Fraction(delta), Fraction(epsilon)
    if N < 1 or p < 1:
        raise DomainError(f"need N >= 1 and p >= 1, got N={N}, p={p}")
    if delta <= 0 or epsilon <= 0:
        raise DomainError("delta and epsilon must be positive")

    side = 2 * delta
    w = (Fraction(width) if width is not None
         else side if N == 1 else (side - N * epsilon) / (2 * N))
    failed = next((c for c in _packing_checks(N, delta, epsilon, w) if not c.ok), None)
    if failed is not None:
        raise ContractError(f"layout refused: {failed.name}: {failed.detail}")
    gap = (side - N * w) / max(N - 1, 1)            # one slab sits at -delta, whatever the gap
    offsets = tuple(-delta + j * (w + gap) for j in range(N))
    orientations = tuple(1 if j % 2 == 0 else -1 for j in range(N))
    return Horseshoe2DModel(N, p, delta, epsilon, w, offsets, orientations)


# === 2-D verification ========================================================

def verify_conditions(model: Horseshoe2DModel) -> VerificationSummary:
    """Independently re-check the model geometry: width and packing (the lines
    ``build_model_2d`` refuses by), slabs inside the square and gaps; a failed
    check names its first failing slab or pair.  strips-span-square is w > 0:
    branch j, x -> offsets[j] + (x + delta)*w/(2*delta) and y stretched from slab j
    across [-delta, delta], sends slab j's corners onto strip j's x-ends and the
    rim y = +-delta (algebra on the same offsets, width and delta).  Slab j1 crosses
    strip j2 iff both slabs lie in the square, so coherence's first uncrossed pair
    is (0, ``bad``)."""
    d, w, eps, n = model.delta, model.width, model.epsilon, model.N
    bad = next((j for j in range(n)
                if not (-d <= model.offsets[j] and model.offsets[j] + w <= d)), None)
    gaps = ((j, model.offsets[j + 1] - (model.offsets[j] + w)) for j in range(n - 1))
    return VerificationSummary((
        *_packing_checks(n, d, eps, w),
        CheckResult("slabs-inside-square", bad is None,
                    "" if bad is None else f"slab {bad} leaves the square"),
        first("slab-gaps", "", (f"slabs {j} and {j + 1}: gap {format_rational(gap)} <= "
                                f"epsilon {format_rational(eps)}" for j, gap in gaps if gap <= eps)),
        CheckResult("strips-span-square", w > 0,
                    "" if w > 0 else "not evaluated: the branch maps need a positive width"),
        CheckResult("coherence", bad is None, "" if bad is None else
                    f"stage 0: slab 0 does not cross strip {bad} of stage {1 % model.p}")))


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


def _orbit_rows(view: MarkovView, steps: int) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
    """The itineraries of depth ``steps`` of the slab view ``view`` and their
    orbit rows [x_1, ..., x_{steps-1}, y_0, ..., y_{steps-1}] (x_0 = 0 on every
    row, so it is left out), in ``product`` order, as integer numerators over
    one denominator, returned with them.  The y-rows are ``view``'s cylinder
    rows (``_cylinder_rows``), last so that ``_least_distances``, which groups
    by the last entry first, walks their itinerary suffixes.

    Strip j is slab j's y-range and the core [-delta, delta] is centred on 0, so
    x's increasing step onto strip j is y's inverse (σ_j, γ_j) over D
    (``_integer_inverses``) with its sign dropped.  x_0 = 0 is the core's
    midpoint, so the y-rows lie over D**steps, and x_t lies over D**t: its
    numerator X_t over D**steps is a multiple of D**(steps - t), so X_{t+1} =
    (|σ_j|·X_t + γ_j·D**steps)/D divides exactly.  x_t depends only on w[:t], so
    the x-row of a length-(steps−1) prefix serves the N itineraries extending it."""
    n = view.branch_count
    ys, den = _cylinder_rows(view, steps)
    pairs, big_d = _integer_inverses(view)
    top = den // big_d
    xs = [[0]]
    for _ in range(steps - 1):
        xs = [[*row, abs(s) * row[-1] // big_d + c * top] for row in xs for s, c in pairs]
    rows = [[*x_row[1:], *y_row] for x_row, y_row in zip((row for row in xs for _ in range(n)), ys)]
    return list(itertools.product(range(n), repeat=steps)), rows, den


def check_rep_cap_2d(N: int, p: int, ell: int) -> None:
    """Refuse a depth ell below 1, and N**(p*ell) representatives over REP_CAP_2D,
    before a slab or a row is built."""
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    _refuse_over_cap(N, p * ell, REP_CAP_2D,
                     f"N**(p*ell) = {{}} representatives exceed the cap {REP_CAP_2D}")


def separated_bound_2d(model: Horseshoe2DModel, ell: int) -> Certificate2D:
    """One representative per depth-(p*ell) itinerary w and its exact least
    distance to the others: y_t is mid C(w[t:]) in ``slab_view``, x_0 = 0 and
    x_{t+1} is strip w_t's squeeze of x_t (``_orbit_rows``).  The rows hold the y-orbits, so the view's
    premises certify the family (``MarkovView``) and the minima are audits.
    Geometry the view refuses (slab gaps at or below epsilon among it) raises
    VerificationError with its reason before any row is built."""
    check_rep_cap_2d(model.N, model.p, ell)

    try:
        view = slab_view(model)
    except ContractError as exc:
        raise VerificationError(f"slab view refused: {exc}") from None
    steps = model.p * ell
    itineraries, rows, den = _orbit_rows(view, steps)

    # sup over time of the plane's sup metric = max over the flat row
    least = _least_distances(rows)
    best = min((d for d in least if d is not None), default=None)
    return Certificate2D(model, ell, steps, len(rows), tuple(itineraries),
                         tuple((Fraction(0), Fraction(r[-steps], den)) for r in rows),
                         tuple(None if d is None else Fraction(d, den) for d in least),
                         None if best is None else Fraction(best, den))


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
    for j, (off, o) in enumerate(zip(model.offsets, model.orientations)):
        span = format_interval(off, off + model.width)    # slab j's y-range is strip j's x-range
        lines.append(f"branch {j} slab {span} strip {span} orient {'+' if o == 1 else '-'}")
    return "\n".join(lines) + "\n"


def load_model_2d(text: str) -> Horseshoe2DModel:
    """Rebuild the model from its five scalars with `build_model_2d`; the
    branch lines must equal the rebuilt model's, in order."""
    lines = body_lines(text, MODEL2D_HEADER)
    branch_lines = [ln for ln in lines if ln.split()[0] == "branch"]
    scalars = read_fields([ln for ln in lines if ln.split()[0] != "branch"],
                          MODEL2D_SCALARS, MODEL2D_SCALARS, "scalar")
    n = parse_int(scalars["N"])
    if len(branch_lines) != n:                     # checked before N slabs are built
        raise SerializationError(f"expected {n} branch lines, found {len(branch_lines)}")
    model = build_model_2d(n, parse_rational(scalars["delta"]), parse_rational(scalars["epsilon"]),
                           parse_int(scalars["p"]), parse_rational(scalars["width"]))
    require_rebuilt(branch_lines, dump_model_2d(model).splitlines()[len(MODEL2D_SCALARS) + 1:],
                    "branch line {0!r} differs from the model its scalars rebuild: {1!r}")
    return model


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
