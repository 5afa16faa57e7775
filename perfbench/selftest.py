"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with a unit
(end-to-end metrics untraced, per-layer metrics traced), that traced and
untraced outputs agree, that a deliberately corrupted output is counted
in ``failed``, and that the benchmark exits non-zero without a result
line when the checkout holds no sources.  Exits 0 when all hold.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import mdimlab  # noqa: E402
import mdimlab.cli  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "density": lambda: workloads.Density(levels=1),
    "certify": lambda: workloads.Certify(n=1, depth=1),
    "grid": lambda: workloads.Grid(maps=3, tent_iterates=6, tent_greedy=(3, F(1, 100))),
}


def _corrupt_sup_distance(real):
    return lambda a, b: real(a, b) + F(1, 1000)


def _corrupt_certificate(real):
    def wrong(model, ell, *rest):
        cert = real(model, ell, *rest)
        return dataclasses.replace(cert, min_pairwise=model.epsilon)
    return wrong


def _corrupt_iterate(real):
    return lambda m, n, *rest: real(m, n + 1, *rest)


# (module, attribute, corruption): one wrong output per workload
CORRUPTIONS = {
    "density": (mdimlab.cli, "sup_distance", _corrupt_sup_distance),
    "certify": (mdimlab, "separated_bound_2d", _corrupt_certificate),
    "grid": (mdimlab, "iterate", _corrupt_iterate),
}


def run_small(name: str, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix=f"selftest-{name}-") as tmp:
        return run.run(SMALL[name](), 7, 0.01, trace, Path(tmp))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    for name in SMALL:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_small(name, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} (trace {int(trace)}): {result['failed']} failed")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if (got is None or got.get("unit") != metric["unit"]
                        or not isinstance(got.get("value"), (int, float))):
                    problems.append(f"{name} (trace {int(trace)}): metric {metric['name']} "
                                    f"missing or without unit {metric['unit']}")

        owner, attr, corrupt = CORRUPTIONS[name]
        real = getattr(owner, attr)
        setattr(owner, attr, corrupt(real))
        try:
            result = run_small(name, False)
        finally:
            setattr(owner, attr, real)
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"{name}: a corrupted output left fail_ratio at 0")
        print(f"{name}: ok" if not any(p.startswith(name) for p in problems) else f"{name}: FAIL")

    # an output whose digest differs from the recorded one is a failure
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="selftest-digest-") as tmp:
        result = run.run(SMALL["grid"](), 7, 0.01, False, Path(tmp), {"counts.txt": "0" * 64})
    if result["failed"] == 0:
        problems.append("grid: a digest mismatch left fail_ratio at 0")
    else:
        print("digest mismatch: ok")

    # a directory holding only BENCHMARK.json and the benchmark must fail fast
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="selftest-bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a checkout without sources did not fail without a result")
        else:
            print("bare checkout: ok")

    for problem in problems:
        print(f"problem: {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
