"""mdimlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload density|certify|grid --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The run sets the workload up (a set-up starts a fresh
interpreter that imports the package, then makes the seeded inputs), then
runs passes for about ``S`` seconds, at least three, and checks every
pass's outputs.  It sets up ``SETUP_REPEATS`` times in all, spread evenly
over the passes, and reports the median as ``setup_s``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``wall_s`` and ``cpu_s`` (this process and its reaped children) of one
pass, ``setup_s`` and ``peak_rss_mb``.  A pass's time is the sum over its
operations of each operation's trimmed mean time in the run (see
``mean_pass``), and the three times are scaled by the trimmed mean time
of a calibration loop timed between operations (see
``workloads.Ops.calibrate``); the summary line before the result gives
them unscaled, with the median pass.  With ``--trace 1`` passes
alternate untraced and traced, the traced ones record a span per call
into each layer (see ``tracer.py``), and the last line holds the
per-layer metrics, ``trace.overhead_s`` (traced minus untraced unscaled
wall time) among them.  Spans and the per-layer table go to
``perfbench/out/``.

A run fails, without a result line, if the checkout has no ``src/mdimlab``.
Failed operations (an ``MdimError``, a non-zero CLI exit, a violated output
invariant, or an output digest that differs from another pass, from a
traced pass, or from the digest recorded in ``meta.json``) are counted in
``failed``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, SPAN_CAP, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# set-ups per run; all but the first are made between passes, spread over
# the run, so that their median does not rest on one moment of the machine
SETUP_REPEATS = 15
# every operation gets at least three samples, however slow the machine runs
MIN_PASSES = 3


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def import_probe() -> None:
    """Start a fresh interpreter that imports the package and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import mdimlab.cli"], env=env, check=True,
                   cwd=ROOT, stdout=subprocess.DEVNULL)


def set_up(workload, seed: int, workdir: Path):
    """Set the workload up in a fresh ``workdir``; returns (state, seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    start = time.perf_counter()
    import_probe()
    state = workload.setup(seed, workdir)
    return state, time.perf_counter() - start


def trimmed_mean(values) -> float:
    """Mean of the values without the lowest and the highest tenth.

    A run often mixes slow and quiet spells of the machine (see
    ``workloads.Ops.calibrate``).  A mean moves smoothly with the share of
    slow time, in the operations' times and the calibration times alike,
    where a median jumps from the quiet to the slow value once that share
    passes a half, at a point that differs between the two.  Trimming
    drops one-off stalls."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def mean_pass(passes: list[list[float]]) -> float:
    """Sum over a pass's operations of each operation's trimmed mean time.

    The workloads keep every operation under about 0.5 s, so that a run
    times each one tens of times, spread over the whole run like the
    calibration samples that the result is scaled by."""
    return sum(trimmed_mean(times) for times in zip(*passes))


def recorded_digests(workload: str, seed: int) -> dict[str, str] | None:
    meta = json.loads((BENCH_DIR / "meta.json").read_text())
    return meta.get("digests", {}).get(workload, {}).get(str(seed))


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path,
        expected: dict[str, str] | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import workloads

    state, first_setup = set_up(workload, seed, workdir / "run")
    setup_times = [first_setup]

    def spare_setup() -> None:
        setup_times.append(set_up(workload, seed, workdir / "spare")[1])

    ops = workloads.Ops()
    tracer = Tracer(workloads.lib.MdimError) if trace else None
    walls = {False: [], True: []}      # per pass: its operations' wall times
    cpus: list[list[float]] = []
    extras: list[dict] = []
    first_outputs = first_results = first_digests = None
    mismatches: list[str] = []

    # after MIN_PASSES, start another pass only while it should end within
    # half a pass of the deadline, so a run lasts about `seconds`
    started = time.perf_counter()
    deadline = started + seconds
    k = 0
    while k < MIN_PASSES or (
            time.perf_counter() + statistics.median(map(sum, walls[False] + walls[True])) / 2
            < deadline):
        traced = trace and k % 2 == 1
        workload.prepare(state)
        ops.times = []
        if traced:
            tracer.install()
            tracer.begin_pass(k)
            ops.tracer = tracer
        results = workload.run(state, ops)
        if traced:
            tracer.end_pass()
            tracer.uninstall()
            ops.tracer = None
        outputs = workload.render(state, results)
        walls[traced].append([wall for wall, _ in ops.times])
        if not traced:
            cpus.append([cpu for _, cpu in ops.times])
        got = digests(outputs)
        if first_digests is None:
            first_outputs, first_results, first_digests = outputs, results, got
            if expected is not None and got != expected:
                mismatches.append(f"pass {k}: outputs differ from the recorded digests: "
                                  + ", ".join(n for n in sorted(set(got) | set(expected))
                                              if got.get(n) != expected.get(n)))
        elif got != first_digests:
            mismatches.append(f"pass {k} ({'traced' if traced else 'untraced'}): "
                              "outputs differ from pass 0")
        if traced:
            extra = workload.layer_extras(ops, outputs)
            extra["rational.max_den_bits"] = workloads.max_den_bits(outputs)
            extras.append(extra)
        k += 1
        share = (time.perf_counter() - started) / seconds
        while len(setup_times) < min(SETUP_REPEATS, 1 + (SETUP_REPEATS - 1) * share):
            spare_setup()
    while len(setup_times) < SETUP_REPEATS:
        spare_setup()

    failures = workload.check(state, first_outputs, first_results) + mismatches
    for message in failures:
        print(f"check failed: {message}")
    failed = ops.failed + len(failures)
    attempted = ops.attempted
    scale = workloads.CALIBRATION_REF_S / trimmed_mean(ops.calibration)
    print(f"{workload.name}: seed {seed}, {k} passes, unscaled wall "
          f"{mean_pass(walls[False]):.4f} s over {len(walls[False])} untraced passes "
          f"(median whole pass "
          f"{statistics.median(map(sum, walls[False])):.4f} s), unscaled setup "
          f"{statistics.median(setup_times):.4f} s over {len(setup_times)}, calibration "
          f"{trimmed_mean(ops.calibration) * 1000:.2f} ms over {len(ops.calibration)} "
          f"(scale {scale:.4f}), "
          f"{failed} of {attempted} operations failed (fail_ratio {failed / attempted:.6g})")

    if not trace:
        metrics = {
            "wall_s": (mean_pass(walls[False]) * scale, "s"),
            "cpu_s": (mean_pass(cpus) * scale, "s"),
            "setup_s": (statistics.median(setup_times) * scale, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = layer_metrics(tracer, extras, LAYERS)
        metrics["trace.overhead_s"] = (mean_pass(walls[True]) - mean_pass(walls[False]), "s")
        write_trace(tracer, metrics, workload.name, seed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# names of per-layer metrics that come straight from span aggregates
SELF_TIMES = (
    "pwa.eval_map", "pwa.compose", "pwa.iterate", "pwa.from_nodes", "pwa.sup_distance",
    "rational.parse_rational", "separation.MarkovView",
    "separation.verify_cylinder_separation", "separation.count_separated_greedy",
    "separation.count_separated_exhaustive", "separation.mdim_profile",
    "fbeta.build_fbeta", "fbeta.verify_model", "fbeta.load_model", "fbeta.dump_model",
    "horseshoe.separated_bound_2d", "horseshoe.detect_1d",
    "surgery.implant", "surgery.blend_with_profile", "surgery.transported_views",
)
CALLS = ("pwa.eval_map", "rational.parse_rational", "separation.MarkovView")
COUNTS = (
    "pwa.iterate.nodes", "pwa.from_nodes.nodes",
    "separation.verify_cylinder_separation.reps", "separation.verify_cylinder_separation.pairs",
    "separation.count_separated_greedy.grid_points", "fbeta.build_fbeta.nodes",
    "horseshoe.separated_bound_2d.reps", "horseshoe.separated_bound_2d.pairs",
    "surgery.blend_with_profile.nodes",
)
CLI_STEPS = ("build-fbeta", "estimate-model", "implant", "estimate-views", "sweep-w1", "sweep-w2")


def layer_metrics(tracer, extras: list[dict], layers) -> dict:
    """Per-layer metrics: the median over traced passes of each value."""
    def med(values):
        return statistics.median(values) if values else 0

    passes = tracer.passes
    m = {}
    for layer in layers:
        m[f"{layer}.self_s"] = (med([sum(v for k, v in p.self_s.items()
                                         if k.startswith(layer + "."))
                                     for p in passes]), "s")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (med([p.self_s.get(name, 0.0) for p in passes]), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (med([p.calls.get(name, 0) for p in passes]), "count")
    for name in COUNTS:
        m[name] = (med([p.counts[name] for p in passes]), "count")
    ratios = [p.counts["separation.count_separated_greedy.selected"]
              / p.counts["separation.count_separated_greedy.grid_points"]
              if p.counts["separation.count_separated_greedy.grid_points"] else 0
              for p in passes]
    m["separation.count_separated_greedy.selected_ratio"] = (med(ratios), "ratio")
    m["rational.max_den_bits"] = (med([e["rational.max_den_bits"] for e in extras]), "bits")
    for step in CLI_STEPS:
        m[f"cli.{step}.wall_s"] = (med([e.get(f"cli.{step}.wall_s", 0.0) for e in extras]), "s")
    m["cli.bytes_written"] = (med([e.get("cli.bytes_written", 0) for e in extras]), "bytes")
    m["cli.sweep-w2.pool_wait_s"] = (
        med([e.get("cli.sweep-w2.pool_wait_s", 0.0) for e in extras]), "s")
    for layer in layers:
        m[f"{layer}.errors"] = (sum(p.errors[layer] for p in passes), "count")
    return m


def write_trace(tracer, metrics: dict, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{workload}-seed{seed}"
    kept = tracer.write_spans(stem.with_suffix(".spans.csv"))
    dropped = sum(p.dropped for p in tracer.passes)
    table = {
        "workload": workload,
        "seed": seed,
        "span_cap_per_pass": SPAN_CAP,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "passes": [
            {"calls": p.calls, "self_s": p.self_s, "counts": dict(p.counts),
             "errors": p.errors, "spans_kept": p.spans, "spans_dropped": p.dropped}
            for p in tracer.passes
        ],
    }
    stem.with_suffix(".table.json").write_text(json.dumps(table, indent=1, sort_keys=True))
    print(f"trace: {kept} spans ({dropped} over the per-pass cap of {SPAN_CAP}) in "
          f"{stem.with_suffix('.spans.csv').relative_to(ROOT)}, table in "
          f"{stem.with_suffix('.table.json').relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mdimlab" / "__init__.py").is_file():
        print(f"error: no mdimlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        result = run(workload, args.seed, args.seconds, bool(args.trace), Path(tmp),
                     recorded_digests(args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
