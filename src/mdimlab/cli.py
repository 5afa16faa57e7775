"""Command-line experiment harness.

Subcommands build staircase models, estimate separation-growth ratios,
verify horseshoe geometry, implant maps, and fan estimation jobs out over a
worker pool.  Every numeric input is an exact fraction literal ("1/58");
nothing parses floats.  Reports land in --out; a short summary goes to
stdout.

Exit codes: 0 success; 2 contract violation, bad parameters, an input
file that is not UTF-8 text, or an --out that names a file or lies under
one; 3 missing input file or a directory given for an input or output file
(then no output is written); 4 grid too coarse for the requested scale; 5
failed verification (horseshoe conditions, separation certificates, implant
postconditions, detection below target); 6 failed implant precondition.
"""

from __future__ import annotations

import argparse
import errno
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
    check_rep_cap_2d,
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

def _read(path: str | Path) -> str:
    """Text of an input file; one that is not UTF-8 text is a SerializationError
    naming it (a missing file or a directory stays an OSError: exit 3)."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise SerializationError(f"not UTF-8 text: {path}") from None


def _write(args: argparse.Namespace, files: dict[str, str]) -> list[Path]:
    """Write each named text into --out, made if missing; none if any target is a directory."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise DomainError(f"--out is not a directory: {out}") from None
    paths = [out / name for name in files]
    if busy := [path for path in paths if path.is_dir()]:
        raise IsADirectoryError(errno.EISDIR, "Is a directory", str(busy[0]))
    for path, text in zip(paths, files.values()):
        path.write_text(text)
    return paths


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError:
        raise DomainError(f"bad iterate window {text!r}, expected like 1:4") from None


def _parse_scales(text: str) -> list[Fraction]:
    """Every comma-separated token, so an empty one is refused; blank text is no scales."""
    return [parse_rational(tok) for tok in text.split(",")] if text.strip() else []


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


def _profile(args: argparse.Namespace, source: str | Path, method: str,
             scales: list[Fraction] | None, window: tuple[int, int], grid: Fraction | None,
             name: str, workers: int = 1) -> int:
    """Profile the source file at the scales and write the report as ``name``."""
    sources, scales = _resolve_sources(_read(source), method, scales)
    report = mdim_profile(sources, scales, window, method, grid, workers)
    text = (json.dumps(report_to_json(report), indent=2) + "\n" if args.format == "json"
            else report_to_csv(report))
    path, = _write(args, {f"{name}.{args.format}": text})
    print(f"wrote {path}")
    print(f"upper {report.upper:.12g}")
    print(f"lower {report.lower:.12g}")
    return 0


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
    paths = _write(args, {"plan.txt": dump_plan(plan), "model.txt": dump_model(model)})

    print(f"{'level':>5}  {'core':<22} {'pieces':>14} {'branches':>9}  scale")
    for lv in plan.levels:
        print(f"{lv.k:>5}  {format_interval(lv.a_odd, lv.a_even):<22} "
              f"{lv.ell:>14} {plan.branch_count(lv.k):>9}  {format_rational(lv.eps)}")
    for path in paths:
        print(f"wrote {path}")

    return 0 if _print_summary(verify_model(model)) else 5


# === estimate ================================================================

def _cmd_estimate(args: argparse.Namespace) -> int:
    method = _METHODS[args.method]
    scales = _parse_scales(args.scales) if args.scales is not None else None
    window = _parse_window(args.n_window)
    grid = parse_rational(args.grid) if args.grid is not None else None
    source = args.model if args.model is not None else args.map
    return _profile(args, source, method, scales, window, grid, "report")


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
        strips = _require_flag(args.strips, "--strips", "2d")
        check_rep_cap_2d(strips, args.period, args.depth)     # before a slab is laid out
        model = build_model_2d(
            strips,
            parse_rational(_require_flag(args.half_side, "--half-side", "2d")),
            parse_rational(_require_flag(args.epsilon, "--epsilon", "2d")),
            args.period,
            parse_rational(args.strip_width) if args.strip_width is not None else None,
        )
        if not _print_summary(verify_conditions(model)):
            return 5
        cert = separated_bound_2d(model, args.depth)
        for path in _write(args, {"horseshoe.txt": dump_model_2d(model),
                                  "certificate.csv": certificate_to_csv(cert)}):
            print(f"wrote {path}")
        print(f"certified {cert.count} representatives at depth {cert.steps}"
              + (f" (min pairwise distance {format_rational(cert.min_pairwise)})"
                 if cert.min_pairwise is not None else ""))
        print(f"ratio-lower-bound {cert.ratio:.12g}")
        return 0

    m = load_pwa(_read(_require_flag(args.map, "--map", "1d")))
    window = parse_interval(args.window)
    core = parse_interval(args.core) if args.core is not None else window
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
    host = load_pwa(_read(args.host))
    fplan = load_plan(_read(args.plan), args.node_budget)
    plan = SurgeryPlan(
        host,
        parse_rational(args.center),
        parse_interval(args.flat),
        parse_interval(args.inner),
        parse_interval(args.outer),
        fplan,
        parse_rational(args.budget) if args.budget is not None else None,
    )
    blended = implant(plan, node_budget=args.node_budget)
    views = transported_views(plan, blended)
    map_path, views_path = _write(args, {"implanted.txt": dump_pwa(blended),
                                         "views.txt": dump_views(views)})
    print(f"wrote {map_path} ({blended.node_count} nodes)")
    print(f"wrote {views_path} ({len(views)} views)")
    print(f"sup-distance {format_rational(sup_distance(blended, host))}")
    return 0


# === sweep ===================================================================

_SWEEP_KEYS = ("source", "method", "scales", "n-window", "grid")


def _cmd_sweep(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    lines = [raw.split("#", 1)[0].strip() for raw in _read(config_path).splitlines()]
    cfg = read_fields([ln for ln in lines if ln], _SWEEP_KEYS, _SWEEP_KEYS[:3], "config key", "=")
    if cfg["method"] not in _METHODS:
        raise SerializationError(f"unknown method {cfg['method']!r}")
    method = _METHODS[cfg["method"]]
    scales = _parse_scales(cfg["scales"])
    window = _parse_window(cfg.get("n-window", "1:4"))
    grid = parse_rational(cfg["grid"]) if "grid" in cfg else None
    check_scales(scales)
    return _profile(args, config_path.parent / cfg["source"], method, scales, window, grid,
                    "sweep", args.workers)


# === dispatch ================================================================

def _build_parser(names: set[str] | None = None) -> argparse.ArgumentParser:
    """Every subcommand with its summary, and the arguments of those in names
    (all when None): argparse parses only the subcommand an argv string names."""
    parser = argparse.ArgumentParser(
        prog="mdimlab",
        description="exact-arithmetic experiments on piecewise-affine interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser | None:
        """A subcommand; if named, it runs ``func`` with -o and, for reports, --format."""
        p = sub.add_parser(name, help=summary)
        if names is not None and name not in names:
            return None
        p.add_argument("-o", "--out", default=".", metavar="DIR",
                       help="output directory (created if missing)")
        if name in ("estimate", "sweep"):
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="report file format")
        p.set_defaults(func=func)
        return p

    if p := command("build-fbeta", _cmd_build_fbeta, "build a staircase model and its plan"):
        p.add_argument("--beta", required=True, help="target ratio, a fraction in [0, 1]")
        p.add_argument("--levels", type=int, default=1, help="number of staircase levels")
        p.add_argument("--seed-a1", default="1/2", help="lower endpoint of the top core")
        p.add_argument("--variant", choices=("full",),
                       help="all-full-branch variant (required when --beta 1)")
        p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    if p := command("estimate", _cmd_estimate, "separation-growth ratio profile over scales"):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--model", help="staircase model or views file")
        src.add_argument("--map", help="piecewise-affine map file")
        p.add_argument("--method", choices=tuple(_METHODS), default="cylinder")
        p.add_argument("--scales", help="comma-separated decreasing fractions")
        p.add_argument("--n-window", default="1:4", help="iterate window, like 1:4")
        p.add_argument("--grid", help="grid resolution for the greedy method")

    if p := command("horseshoe", _cmd_horseshoe, "verify a planar model or detect crossing laps"):
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

    if p := command("implant", _cmd_implant, "blend a rescaled staircase model into a host map"):
        p.add_argument("--host", required=True, help="host map file (flat on the target)")
        p.add_argument("--plan", required=True, help="staircase plan file")
        p.add_argument("--center", required=True, help="fixed point at the flat's center")
        p.add_argument("--flat", required=True, help="flat interval lo:hi")
        p.add_argument("--inner", required=True, help="window lo:hi receiving the copy")
        p.add_argument("--outer", required=True, help="window lo:hi where blending ends")
        p.add_argument("--budget", help="cap: outer window must be under budget/3")
        p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    if p := command("sweep", _cmd_sweep, "run an estimation profile from a config file"):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--workers", type=int, default=1, metavar="N", help="worker processes")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser(set(sys.argv[1:] if argv is None else argv)).parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError) as exc:
        kind = "missing file" if isinstance(exc, FileNotFoundError) else "not a file"
        print(f"error: {kind}: {exc.filename or exc}", file=sys.stderr)
        return 3
    except MdimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, GridPrecisionError):
            return 4
        if isinstance(exc, VerificationError):
            return 5
        return 6 if isinstance(exc, ContractError) and args.command == "implant" else 2


if __name__ == "__main__":
    sys.exit(main())
