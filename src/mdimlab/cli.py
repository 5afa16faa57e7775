"""Command-line experiment harness.

Subcommands build staircase models, estimate separation-growth ratios,
verify horseshoe geometry, implant maps, and fan estimation jobs out over a
worker pool.  Every numeric input is an exact fraction literal ("1/58");
nothing parses floats.  Reports land in --out; a short summary goes to
stdout.

Exit codes: 0 success; 2 contract violation or bad parameters; 3 missing
input file or a directory given for one; 4 grid too coarse for the
requested scale; 5 failed verification (horseshoe conditions, separation
certificates, implant postconditions, detection below target); 6 failed
implant precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    ContractError,
    DomainError,
    GridPrecisionError,
    MdimError,
    SerializationError,
    VerificationError,
)
from .fbeta import (
    MODEL_HEADER,
    build_fbeta,
    dump_model,
    dump_plan,
    load_model,
    load_plan,
    plan_sequences,
    verify_model,
)
from .horseshoe import (
    build_model_2d,
    certificate_to_csv,
    detect_1d,
    dump_model_2d,
    full_lap_view,
    separated_bound_2d,
    verify_conditions,
)
from .pwa import DEFAULT_NODE_BUDGET, PWA_HEADER, dump_pwa, load_pwa, sup_distance
from .rational import (
    format_interval, format_rational, parse_interval, parse_rational, read_fields, split_header,
)
from .reporting import VerificationSummary
from .separation import (
    METHOD_CYLINDER,
    METHOD_GREEDY,
    VIEWS_HEADER,
    check_scales,
    dump_views,
    load_views,
    mdim_profile,
    report_to_csv,
    report_to_json,
)
from .surgery import SurgeryPlan, implant, transported_views

_METHODS = {"cylinder": METHOD_CYLINDER, "greedy": METHOD_GREEDY}


# === shared plumbing =========================================================

def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError:
        raise DomainError(f"bad iterate window {text!r}, expected like 1:4") from None


def _parse_scales(text: str) -> list[Fraction]:
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


def _resolve_sources(
    text: str,
    method: str,
    scales: list[Fraction] | None,
):
    """Turn a source file (map, staircase model, or views) plus optional
    explicit scales into (sources, scales) for the profile."""
    header = split_header(text)[0]
    if header == PWA_HEADER:
        m = load_pwa(text)
        if scales is None:
            raise ContractError("estimating a bare map needs --scales")
        return (full_lap_view(m) if method == METHOD_CYLINDER else m), scales

    if header == MODEL_HEADER:
        model = load_model(text)
        if method == METHOD_GREEDY:
            if scales is None:
                raise ContractError("greedy estimation needs --scales")
            return model.map, scales
        views = list(model.views)
    elif header == VIEWS_HEADER:
        if method == METHOD_GREEDY:
            raise ContractError("a views file carries no map; greedy needs a map or model file")
        views = list(load_views(text))
    else:
        raise SerializationError(f"unrecognized source header {header!r}")

    if scales is None:
        missing = [v.label or f"#{i}" for i, v in enumerate(views) if v.separation_scale is None]
        if missing:
            raise ContractError(
                f"views {', '.join(missing)} declare no separation scale; pass --scales"
            )
        return views, [v.separation_scale for v in views]
    if len(scales) == len(views):
        return views, scales
    by_scale = {v.separation_scale: v for v in views}
    picked = []
    for s in scales:
        if s not in by_scale:
            have = ", ".join(format_rational(v.separation_scale) for v in views
                             if v.separation_scale is not None)
            raise ContractError(f"no view at scale {format_rational(s)}; available: {have}")
        picked.append(by_scale[s])
    return picked, scales


def _write_report(report, args: argparse.Namespace, name: str) -> None:
    out = _out_dir(args)
    if args.format == "json":
        path = out / f"{name}.json"
        path.write_text(json.dumps(report_to_json(report), indent=2) + "\n")
    else:
        path = out / f"{name}.csv"
        path.write_text(report_to_csv(report))
    print(f"wrote {path}")
    print(f"upper {report.upper:.12g}")
    print(f"lower {report.lower:.12g}")


def _print_summary(summary: VerificationSummary) -> bool:
    """Print a verification summary (its first failure to stderr); True when it passed."""
    for line in summary.lines():
        print(line)
    if not summary.ok:
        fail = summary.first_failure
        print(f"error: {fail.name}: {fail.detail}", file=sys.stderr)
    return summary.ok


# === build-fbeta =============================================================

def _cmd_build_fbeta(args: argparse.Namespace) -> int:
    if args.levels < 1:                    # plan_sequences names K = levels - 1
        raise DomainError(f"--levels must be >= 1, got {args.levels}")
    plan = plan_sequences(
        parse_rational(args.beta),
        args.levels - 1,
        seed_a1=parse_rational(args.seed_a1),
        variant_full=args.variant == "full",
        node_budget=args.node_budget,
    )
    model = build_fbeta(plan, node_budget=args.node_budget)
    out = _out_dir(args)
    plan_path = out / "plan.txt"
    model_path = out / "model.txt"
    plan_path.write_text(dump_plan(plan))
    model_path.write_text(dump_model(model))

    print(f"{'level':>5}  {'core':<22} {'pieces':>14} {'branches':>9}  scale")
    for lv in plan.levels:
        print(f"{lv.k:>5}  {format_interval(lv.a_odd, lv.a_even):<22} "
              f"{lv.ell:>14} {plan.branch_count(lv.k):>9}  {format_rational(lv.eps)}")
    print(f"wrote {plan_path}")
    print(f"wrote {model_path}")

    return 0 if _print_summary(verify_model(model)) else 5


# === estimate ================================================================

def _cmd_estimate(args: argparse.Namespace) -> int:
    method = _METHODS[args.method]
    scales = _parse_scales(args.scales) if args.scales else None
    window = _parse_window(args.n_window)
    grid = parse_rational(args.grid) if args.grid else None
    source_path = Path(args.model if args.model else args.map)
    sources, scales = _resolve_sources(source_path.read_text(), method, scales)
    report = mdim_profile(sources, scales, window, method, grid)
    _write_report(report, args, "report")
    return 0


# === horseshoe ===============================================================

def _require_flag(value, flag: str, mode: str):
    if value is None:
        raise DomainError(f"{flag} is required for --mode {mode}")
    return value


# each mode's flags and defaults; flags parse to None when absent, so a flag
# given to the other mode is seen and refused
_MODE_FLAGS = {
    "2d": {"strips": None, "half_side": None, "period": 1, "strip_width": None, "depth": 1},
    "1d": {"map": None, "window": "0:1", "core": None, "margin": "0", "target": None},
}


def _cmd_horseshoe(args: argparse.Namespace) -> int:
    for mode, flags in _MODE_FLAGS.items():
        for dest, default in flags.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif mode != args.mode:
                raise DomainError(f"--{dest.replace('_', '-')} is not a --mode {args.mode} flag")
    if args.mode == "2d":
        model = build_model_2d(
            _require_flag(args.strips, "--strips", "2d"),
            parse_rational(_require_flag(args.half_side, "--half-side", "2d")),
            parse_rational(_require_flag(args.epsilon, "--epsilon", "2d")),
            args.period,
            parse_rational(args.strip_width) if args.strip_width else None,
        )
        if not _print_summary(verify_conditions(model)):
            return 5
        cert = separated_bound_2d(model, args.depth)
        out = _out_dir(args)
        model_path = out / "horseshoe.txt"
        cert_path = out / "certificate.csv"
        model_path.write_text(dump_model_2d(model))
        cert_path.write_text(certificate_to_csv(cert))
        print(f"wrote {model_path}")
        print(f"wrote {cert_path}")
        print(f"certified {cert.count} representatives at depth {cert.steps}"
              + (f" (min pairwise distance {format_rational(cert.min_pairwise)})"
                 if cert.min_pairwise is not None else ""))
        print(f"ratio-lower-bound {cert.ratio:.12g}")
        return 0

    m = load_pwa(Path(_require_flag(args.map, "--map", "1d")).read_text())
    window = parse_interval(args.window)
    core = parse_interval(args.core) if args.core else window
    report = detect_1d(m, window, core,
                       parse_rational(_require_flag(args.epsilon, "--epsilon", "1d")),
                       parse_rational(args.margin))
    print(f"laps crossing {format_interval(*core)}: {report.count}")
    if report.min_separation is not None:
        print(f"min domain separation {format_rational(report.min_separation)}")
    if report.margin is not None:
        print(f"crossing margin {format_rational(report.margin)}")
    for lap in report.laps:
        print(f"lap {format_interval(lap.lo, lap.hi)} {'up' if lap.increasing else 'down'}")
    if args.target is not None and report.count < args.target:
        print(f"error: detected {report.count} crossing laps, below target {args.target}",
              file=sys.stderr)
        return 5
    return 0


# === implant =================================================================

def _cmd_implant(args: argparse.Namespace) -> int:
    host = load_pwa(Path(args.host).read_text())
    fplan = load_plan(Path(args.plan).read_text(), args.node_budget)
    plan = SurgeryPlan(
        host,
        parse_rational(args.center),
        parse_interval(args.flat),
        parse_interval(args.inner),
        parse_interval(args.outer),
        fplan,
        parse_rational(args.budget) if args.budget else None,
    )
    blended = implant(plan, node_budget=args.node_budget)
    views = transported_views(plan, blended)

    out = _out_dir(args)
    map_path = out / "implanted.txt"
    views_path = out / "views.txt"
    map_path.write_text(dump_pwa(blended))
    views_path.write_text(dump_views(views))
    print(f"wrote {map_path} ({blended.node_count} nodes)")
    print(f"wrote {views_path} ({len(views)} views)")
    print(f"sup-distance {format_rational(sup_distance(blended, host))}")
    return 0


# === sweep ===================================================================

_SWEEP_KEYS = ("source", "method", "scales", "n-window", "grid")


def _cmd_sweep(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    lines = [raw.split("#", 1)[0].strip() for raw in config_path.read_text().splitlines()]
    cfg = read_fields([ln for ln in lines if ln], _SWEEP_KEYS, _SWEEP_KEYS[:3], "config key", "=")
    if cfg["method"] not in _METHODS:
        raise SerializationError(f"unknown method {cfg['method']!r}")
    method = _METHODS[cfg["method"]]
    scales = _parse_scales(cfg["scales"])
    window = _parse_window(cfg.get("n-window", "1:4"))
    grid = parse_rational(cfg["grid"]) if "grid" in cfg else None
    check_scales(scales)
    sources, scales = _resolve_sources((config_path.parent / cfg["source"]).read_text(),
                                       method, scales)
    report = mdim_profile(sources, scales, window, method, grid, args.workers)
    _write_report(report, args, "sweep")
    return 0


# === dispatch ================================================================

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--out", default=".", metavar="DIR",
                        help="output directory (created if missing)")
    reports = argparse.ArgumentParser(add_help=False, parents=[common])
    reports.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="report file format")

    parser = argparse.ArgumentParser(
        prog="mdimlab",
        description="exact-arithmetic experiments on piecewise-affine interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-fbeta", parents=[common],
                       help="build a staircase model and its plan")
    p.add_argument("--beta", required=True, help="target ratio, a fraction in [0, 1]")
    p.add_argument("--levels", type=int, default=1, help="number of staircase levels")
    p.add_argument("--seed-a1", default="1/2", help="lower endpoint of the top core")
    p.add_argument("--variant", choices=("full",),
                   help="all-full-branch variant (required when --beta 1)")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_build_fbeta)

    p = sub.add_parser("estimate", parents=[reports],
                       help="separation-growth ratio profile over scales")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="staircase model or views file")
    src.add_argument("--map", help="piecewise-affine map file")
    p.add_argument("--method", choices=tuple(_METHODS), default="cylinder")
    p.add_argument("--scales", help="comma-separated decreasing fractions")
    p.add_argument("--n-window", default="1:4", help="iterate window, like 1:4")
    p.add_argument("--grid", help="grid resolution for the greedy method")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("horseshoe", parents=[common],
                       help="verify a planar model or detect crossing laps")
    p.add_argument("--mode", choices=("2d", "1d"), required=True)
    p.add_argument("--strips", type=int, help="2d: number of horizontal slabs")
    p.add_argument("--half-side", help="2d: half side length of the square")
    p.add_argument("--epsilon", help="separation scale")
    p.add_argument("--period", type=int, help="2d: stages in the cycle (default 1)")
    p.add_argument("--strip-width", help="2d: slab height (default: half the slack)")
    p.add_argument("--depth", type=int, help="2d: recursion rounds (default 1)")
    p.add_argument("--map", help="1d: map file to scan")
    p.add_argument("--window", help="1d: scan window (default 0:1)")
    p.add_argument("--core", help="1d: crossing target (default: the window)")
    p.add_argument("--margin", help="1d: required crossing margin (default 0)")
    p.add_argument("--target", type=int, help="1d: fail (exit 5) below this lap count")
    p.set_defaults(func=_cmd_horseshoe)

    p = sub.add_parser("implant", parents=[common],
                       help="blend a rescaled staircase model into a host map")
    p.add_argument("--host", required=True, help="host map file (flat on the target)")
    p.add_argument("--plan", required=True, help="staircase plan file")
    p.add_argument("--center", required=True, help="fixed point at the flat's center")
    p.add_argument("--flat", required=True, help="flat interval lo:hi")
    p.add_argument("--inner", required=True, help="window lo:hi receiving the copy")
    p.add_argument("--outer", required=True, help="window lo:hi where blending ends")
    p.add_argument("--budget", help="cap: outer window must be under budget/3")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_implant)

    p = sub.add_parser("sweep", parents=[reports],
                       help="run an estimation profile from a config file")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--workers", type=int, default=1, metavar="N", help="worker processes")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError) as exc:
        kind = "missing file" if isinstance(exc, FileNotFoundError) else "not a file"
        print(f"error: {kind}: {exc.filename or exc}", file=sys.stderr)
        return 3
    except GridPrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6 if args.command == "implant" else 2
    except MdimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
