"""Local surgery on interval maps: splice a rescaled copy of a
high-complexity map into an interval the host fixes pointwise.

Pipeline: the host fixes an interval J pointwise (`implant` refuses a host
that does not), and `implant` splices A o g~ o A^{-1} into J, where A is
the increasing affine bijection of [0, 1] onto the inner window and g~
extends the implanted map by the identity: the host below the inner window,
the rescaled copy on it, the host above it.
This is the paper's bump blend for every bump (the argument is in
`implant`).  Off the outer window the result equals the host exactly; on the
inner window it is exactly the rescaled implant, so separated-set counts
transport through A with the window length as scale factor.

`implant` assembles only the staircase map (`assemble_fbeta`), never its
level views; `transported_views` checks each view once, against the implanted
map.  Maps are compared on a window by `pwa._distance_on`, which is 0 exactly
when they agree there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ContractError, DomainError, SerializationError, VerificationError
from .fbeta import FBetaPlan, assemble_fbeta, level_views, load_plan
from .pwa import DEFAULT_NODE_BUDGET, PwaMap, _distance_on, identity_map, load_pwa
from .rational import (
    body_lines, format_interval, format_rational, parse_interval, parse_rational, read_fields,
)
from .separation import MarkovBranch, MarkovView

Interval = tuple[Fraction, Fraction]


# === building blocks =========================================================

def _affine_into(lo: Fraction, hi: Fraction) -> Callable[[Fraction], Fraction]:
    """A: x -> lo + x·(hi - lo), each image one Fraction of integer numerators."""
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    start, span, den = ln * hd, hn * ld - ln * hd, ld * hd

    def move(x: Fraction) -> Fraction:
        p, q = x.as_integer_ratio()
        return Fraction(start * q + p * span, den * q)

    return move


def conjugate_into_interval(m: PwaMap, lo: Fraction, hi: Fraction) -> PwaMap:
    """A o m o A^{-1} on [lo, hi] (A the increasing affine bijection from
    [0, 1]), extended by the identity outside.  The extension is continuous
    only when m fixes both endpoints, so that is required."""
    if not (0 <= lo < hi <= 1):
        raise DomainError(f"target {format_interval(lo, hi)} is not a subinterval of [0, 1]")
    if m.ys[0] != 0 or m.ys[-1] != 1:                  # the values at x = 0 and x = 1
        raise ContractError(
            "conjugated map must fix 0 and 1 so the identity extension is continuous; "
            f"got m(0) = {format_rational(m.ys[0])}, m(1) = {format_rational(m.ys[-1])}"
        )
    move = _affine_into(lo, hi)
    nodes: list[tuple[Fraction, Fraction]] = []
    if lo > 0:
        nodes.append((Fraction(0), Fraction(0)))
    nodes += [(move(x), move(y)) for x, y in m.nodes()]
    if hi < 1:
        nodes.append((Fraction(1), Fraction(1)))
    return PwaMap.from_nodes(nodes)


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
    them the identity, as both maps are, whatever χ is there: the map
    through the host's nodes below the inner window, its ends (fixed by
    both maps), the insert's nodes inside it and the host's nodes above it.
    ``from_nodes`` drops the nodes the splice leaves collinear.
    """
    _check_plan(plan)

    staircase, _ = assemble_fbeta(plan.fbeta_plan, node_budget)
    lo, hi = plan.J_hat
    insert = conjugate_into_interval(staircase, lo, hi)
    host = plan.host
    inside = insert.nodes()[bisect_right(insert.xs, lo):bisect_left(insert.xs, hi)]
    spliced = PwaMap.from_nodes(host.nodes()[:bisect_left(host.xs, lo)]
                                + [(lo, lo), *inside, (hi, hi)]
                                + host.nodes()[bisect_right(host.xs, hi):])

    _verify_implant(spliced, plan, insert)
    return spliced


def _verify_implant(blended: PwaMap, plan: SurgeryPlan, insert: PwaMap) -> None:
    """Raise one VerificationError naming every broken promise."""
    (h_lo, h_hi), (t_lo, t_hi) = plan.J_hat, plan.J_tilde
    broken = []
    if _distance_on(blended, plan.host, 0, t_lo) or _distance_on(blended, plan.host, t_hi, 1):
        broken.append(f"implant leaked outside the outer window {format_interval(t_lo, t_hi)}")
    if _distance_on(blended, insert, h_lo, h_hi):
        broken.append(f"inner window {format_interval(h_lo, h_hi)} does not carry the exact "
                      "rescaled copy")
    (ln, ld), (hn, hd) = h_lo.as_integer_ratio(), h_hi.as_integer_ratio()
    inner = blended.ys[bisect_right(blended.xs, h_lo):bisect_left(blended.xs, h_hi)]
    if (blended(h_lo) != h_lo or blended(h_hi) != h_hi
            or any(not (ln * d <= n * ld and n * hd <= hn * d)
                   for n, d in (y.as_integer_ratio() for y in inner))):
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
    if not (0 <= lo < hi <= 1):
        raise DomainError(f"target {format_interval(lo, hi)} is not a subinterval of [0, 1]")
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
    missing file, a directory) is a SerializationError naming key and path."""
    path = base / fields[key]
    try:
        return path.read_text()
    except OSError as exc:
        raise SerializationError(
            f"{key} reference {str(path)!r} cannot be read: {exc.strerror}"
        ) from None


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
