"""Local surgery on interval maps: splice a rescaled copy of a
high-complexity map into an interval the host fixes pointwise.

`implant` refuses a host that does not fix its flat interval J, moves the
staircase's nodes into the inner window by A, the increasing affine
bijection of [0, 1] onto it (``_moved_nodes``), and splices them between
the host's nodes below and above it (``_splice``, which also makes
`conjugate_into_interval`'s identity extension): the paper's bump blend for
every bump (see `implant`).  Off the outer window the result is the host
exactly; on the inner window it is exactly the rescaled copy, so counts
transport through A, scaled by the window length.  No insert map or level
view is built; `transported_views` checks each view against the result.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ContractError, DomainError, SerializationError, VerificationError
from .fbeta import FBetaPlan, assemble_fbeta, level_views, load_plan
from .pwa import DEFAULT_NODE_BUDGET, PwaMap, _build, _distance_on, _window, identity_map, load_pwa
from .rational import (
    body_lines, format_interval, format_rational, parse_interval, parse_rational, read_fields,
)
from .separation import MarkovBranch, MarkovView

Interval = tuple[Fraction, Fraction]


# === building blocks =========================================================

def _affine_into(lo: Fraction, hi: Fraction) -> Callable[[Fraction], Fraction]:
    """A: x -> lo + x·(hi - lo), one Fraction per image, for [lo, hi] a subinterval of [0, 1]."""
    if not (0 <= lo < hi <= 1):
        raise DomainError(f"target {format_interval(lo, hi)} is not a subinterval of [0, 1]")
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    start, span, den = ln * hd, hn * ld - ln * hd, ld * hd

    def move(x: Fraction) -> Fraction:
        p, q = x.as_integer_ratio()
        return Fraction(start * q + p * span, den * q)

    return move


def _splice(host: PwaMap, moved: list[tuple[Fraction, Fraction]]) -> PwaMap:
    """The map through a canonical host's nodes below lo, ``moved`` from
    (lo, lo) to (hi, hi), and its nodes above hi; the host must fix lo, hi.

    ``pwa._build`` tests only the interior junctions.  The x order and the
    [0, 1] range follow from ``_window``'s split and ``moved`` rising inside
    [lo, hi].  A junction lies on the host piece through it, so a kept host
    node keeps both slopes and stays a kink; ``moved`` is an increasing
    affine image of a canonical map, so its interior nodes are kinks.
    """
    below, _, above = _window(host, moved[0][0], moved[-1][0])
    nodes = host.nodes()
    xs, ys = map(list, zip(*nodes[below], *moved, *nodes[above]))
    xr, yr = ([v.as_integer_ratio() for v in vs] for vs in (xs, ys))
    ends = (below.stop, below.stop + len(moved) - 1)        # the junctions
    return _build(xs, ys, xr, yr, [k for k in ends if 0 < k < len(xs) - 1])


def _moved_nodes(m: PwaMap, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The nodes of A o m o A^{-1}, A the increasing affine bijection of [0, 1]
    onto [lo, hi]; m must fix 0 and 1, so that a host fixing lo, hi continues it."""
    move = _affine_into(lo, hi)
    if m.ys[0] != 0 or m.ys[-1] != 1:                  # the values at x = 0 and x = 1
        raise ContractError(
            "conjugated map must fix 0 and 1 so the identity extension is continuous; "
            f"got m(0) = {format_rational(m.ys[0])}, m(1) = {format_rational(m.ys[-1])}")
    return [(move(x), move(y)) for x, y in m.nodes()]


def conjugate_into_interval(m: PwaMap, lo: Fraction, hi: Fraction) -> PwaMap:
    """A o m o A^{-1} on [lo, hi], extended by the identity; m must fix 0 and 1."""
    return _splice(identity_map(), _moved_nodes(m, lo, hi))


# === implant plans ===========================================================

@dataclass(frozen=True)
class SurgeryPlan:
    """One implant: a host that already fixes the flat interval J pointwise,
    the nested windows, and the plan of the map to implant.

    `budget` (if given) caps the outer window at a third of it, so three
    such edits stay within the caller's distance budget.
    """

    host: PwaMap
    P: Fraction
    J: Interval
    J_hat: Interval
    J_tilde: Interval
    fbeta_plan: FBetaPlan
    budget: Fraction | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ContractError(message)


def _check_plan(plan: SurgeryPlan) -> None:
    (j_lo, j_hi), (h_lo, h_hi), (t_lo, t_hi) = plan.J, plan.J_hat, plan.J_tilde
    _require(t_lo < h_lo < h_hi < t_hi,
             f"inner window {format_interval(h_lo, h_hi)} must nest strictly inside "
             f"outer window {format_interval(t_lo, t_hi)}")
    _require(j_lo <= t_lo and t_hi <= j_hi and (j_lo, j_hi) != (t_lo, t_hi),
             f"outer window {format_interval(t_lo, t_hi)} must nest properly inside "
             f"flat interval {format_interval(j_lo, j_hi)}")
    _require(0 <= j_lo < j_hi <= 1, f"flat interval {format_interval(j_lo, j_hi)} leaves [0, 1]")
    _require(j_lo + j_hi == 2 * plan.P,
             f"flat interval {format_interval(j_lo, j_hi)} is not centered at "
             f"P = {format_rational(plan.P)}")
    _require(_distance_on(plan.host, identity_map(), j_lo, j_hi) == 0,
             f"host must fix {format_interval(j_lo, j_hi)} pointwise (flatten it first)")
    if plan.budget is not None:
        _require(t_hi - t_lo < plan.budget / 3,
                 f"outer window length {format_rational(t_hi - t_lo)} must stay below "
                 f"a third of the budget {format_rational(plan.budget)}")


def implant(plan: SurgeryPlan, node_budget: int = DEFAULT_NODE_BUDGET) -> PwaMap:
    """Splice a rescaled copy of the planned map into the host's flat spot.

    Checks the plan, assembles the staircase map (no level views), splices,
    and re-verifies the three promises: the host is untouched off the outer
    window, the inner window carries an exact rescaled copy, and the inner
    window is invariant.

    The splice is the paper's blend (1 − χ)·host + χ·insert for every bump
    χ that is 1 on the inner window and 0 off the outer one.  The host
    fixes J, which contains the outer window (`_check_plan`), and the insert
    is the identity off the inner window.  So the blend is the host off the
    outer window, the insert on the inner one, and on each collar between
    them the identity, as both maps are, whatever χ is there: the splice.
    """
    _check_plan(plan)

    staircase, _ = assemble_fbeta(plan.fbeta_plan, node_budget)
    moved = _moved_nodes(staircase, *plan.J_hat)
    spliced = _splice(plan.host, moved)

    _verify_implant(spliced, plan, moved)
    return spliced


def _verify_implant(blended: PwaMap, plan: SurgeryPlan,
                    moved: list[tuple[Fraction, Fraction]]) -> None:
    """Raise one VerificationError naming every broken promise.  The copy
    is checked by nodes: blended's nodes strictly inside the inner window
    are ``moved``'s interior ones and both ends are fixed.  Sound for any
    maps (both are then affine between the same points, equal there);
    complete for canonical ones (a node strictly inside is a kink of each)."""
    (h_lo, h_hi), (t_lo, t_hi) = plan.J_hat, plan.J_tilde
    broken = []
    if _distance_on(blended, plan.host, 0, t_lo) or _distance_on(blended, plan.host, t_hi, 1):
        broken.append(f"implant leaked outside the outer window {format_interval(t_lo, t_hi)}")
    inside = _window(blended, h_lo, h_hi)[1]
    ends_fixed = blended(h_lo) == h_lo and blended(h_hi) == h_hi
    if not ends_fixed or list(zip(blended.xs[inside], blended.ys[inside])) != moved[1:-1]:
        broken.append(f"inner window {format_interval(h_lo, h_hi)} does not carry the exact "
                      "rescaled copy")
    (ln, ld), (hn, hd) = h_lo.as_integer_ratio(), h_hi.as_integer_ratio()
    if (not ends_fixed
            or any(not (ln * d <= n * ld and n * hd <= hn * d)
                   for n, d in (y.as_integer_ratio() for y in blended.ys[inside]))):
        broken.append(f"inner window {format_interval(h_lo, h_hi)} is not invariant")
    if broken:
        raise VerificationError("; ".join(broken))


# === transported views =======================================================

def transport_markov_view(
    view: MarkovView,
    lo: Fraction,
    hi: Fraction,
    mapped: PwaMap | None = None,
) -> MarkovView:
    """Affine image of a Markov view inside [lo, hi]: cores, branch domains,
    and the separation scale all rescale by hi - lo."""
    move = _affine_into(lo, hi)
    branches = tuple(
        MarkovBranch(move(b.lo), move(b.hi), b.increasing) for b in view.branches
    )
    sep = None if view.separation_scale is None else view.separation_scale * (hi - lo)
    label = f"{view.label} in {format_interval(lo, hi)}" if view.label else ""
    return MarkovView(move(view.core_lo), move(view.core_hi), branches, sep, mapped, label)


def transported_views(plan: SurgeryPlan, blended: PwaMap) -> tuple[MarkovView, ...]:
    """The implanted copies of the plan's per-level views, each checked
    against the blended map."""
    lo, hi = plan.J_hat
    return tuple(transport_markov_view(v, lo, hi, blended) for v in level_views(plan.fbeta_plan))


# === serialization ===========================================================

SURGERY_HEADER = "surgery-plan v1"
SURGERY_KEYS = ("host", "plan", "P", "J", "J-hat", "J-tilde", "budget")  # 6 required


def dump_surgery_plan(plan: SurgeryPlan, host_ref: str, plan_ref: str) -> str:
    """Text form referencing the host map and the build plan by path."""
    lines = [
        SURGERY_HEADER,
        f"host {host_ref}",
        f"plan {plan_ref}",
        f"P {format_rational(plan.P)}",
        f"J {format_interval(*plan.J)}",
        f"J-hat {format_interval(*plan.J_hat)}",
        f"J-tilde {format_interval(*plan.J_tilde)}",
    ]
    if plan.budget is not None:
        lines.append(f"budget {format_rational(plan.budget)}")
    return "\n".join(lines) + "\n"


def _read_reference(base: Path, fields: dict[str, str], key: str) -> str:
    """Text of the file a plan's ``key`` line names; an unreadable one (a
    missing file, a directory, bytes that are not UTF-8 text) is a
    SerializationError naming key and path."""
    path = base / fields[key]
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise SerializationError(f"{key} reference {str(path)!r} cannot be read: {why}") from None


def load_surgery_plan(text: str, base_dir: str | Path = ".") -> SurgeryPlan:
    fields = read_fields(body_lines(text, SURGERY_HEADER), SURGERY_KEYS, SURGERY_KEYS[:6], "field")
    base = Path(base_dir)
    host = load_pwa(_read_reference(base, fields, "host"))
    fplan = load_plan(_read_reference(base, fields, "plan"))
    point = parse_rational(fields["P"])
    j = parse_interval(fields["J"])
    j_hat = parse_interval(fields["J-hat"])
    j_tilde = parse_interval(fields["J-tilde"])
    budget = parse_rational(fields["budget"]) if "budget" in fields else None
    return SurgeryPlan(host, point, j, j_hat, j_tilde, fplan, budget=budget)
