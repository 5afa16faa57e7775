"""Record output digests and run environment into ``perfbench/meta.json``.

    python3 perfbench/record.py [--seeds 0-15] [--workload NAME ...]

For each workload and seed this sets the workload up, runs one pass,
checks its outputs, and stores the sha256 digest of every output file.
Later runs with a recorded seed compare against these digests.  A pass
that fails a check is not recorded.  The hand-written parts of meta.json
(the layer predictions) are kept as they are.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def input_sizes() -> dict:
    import inputs
    import mdimlab as lib
    from fractions import Fraction

    density = lib.build_fbeta(lib.plan_sequences(Fraction(inputs.DENSITY_BETA),
                                                 inputs.DENSITY_LEVELS - 1))
    certify = lib.build_fbeta(lib.plan_sequences(inputs.CERTIFY_BETA, inputs.CERTIFY_K))
    cylinder_reps = certify.view(inputs.CERTIFY_LEVEL).branch_count ** inputs.CERTIFY_N
    baker_reps = inputs.SLABS ** (inputs.PERIOD * inputs.DEPTH)
    return {
        "density": {
            "cli_steps": ["build-fbeta", "estimate --model", "implant", "estimate views",
                          "sweep --workers 1", "sweep --workers 2"],
            "beta": inputs.DENSITY_BETA, "levels": inputs.DENSITY_LEVELS,
            "model_nodes": density.map.node_count,
            "branches_per_level": [density.view(k).branch_count
                                   for k in range(inputs.DENSITY_LEVELS)],
            "implant_sup_distance": str(inputs.DENSITY_SUP_DISTANCE),
            "host": f"identity on {inputs.DENSITY_FLAT[0]}:{inputs.DENSITY_FLAT[1]}, "
                    f"{inputs.HOST_SIDE_NODES[0]}-{inputs.HOST_SIDE_NODES[1]} random nodes "
                    f"on the 1/{inputs.HOST_DENOM} grid each side",
            "inner_window": "1/4:3/4", "outer_window": "1/5:4/5",
        },
        "certify": {
            "cylinder_view": f"beta {inputs.CERTIFY_BETA} level {inputs.CERTIFY_LEVEL}, "
                             f"n={inputs.CERTIFY_N}, {cylinder_reps} reps",
            "baker_model": f"{inputs.SLABS} slabs, period {inputs.PERIOD}, depth "
                           f"{inputs.DEPTH}, {baker_reps} reps, epsilon {inputs.SLAB_EPSILON}",
            "slab_widths": [str(w) for w in inputs.SLAB_WIDTHS],
            "sampled_pairs": inputs.SAMPLED_PAIRS,
        },
        "grid": {
            "random_maps": inputs.RANDOM_MAPS, "map_denominator": inputs.MAP_DENOM,
            "map_interior_nodes": list(inputs.MAP_INTERIOR),
            "tent_iterate": inputs.TENT_ITERATES,
            "tent_greedy": f"n={inputs.TENT_GREEDY[0]}, eps={inputs.TENT_GREEDY[1]}",
            "map_greedy": f"n={inputs.MAP_GREEDY[0]}, eps={inputs.MAP_GREEDY[1]}",
            "exhaustive_points": inputs.EXHAUSTIVE_POINTS,
            "map_iterate": inputs.MAP_ITERATES,
            "profile_scales": [str(s) for s in inputs.PROFILE_SCALES],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads

    meta_path = run.BENCH_DIR / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["environment"] = {"python": platform.python_version(), "nproc": os.cpu_count()}
    whys = {w["name"]: w["why"] for w in
            json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]}
    meta["workloads"] = {name: {"why": whys[name], "inputs": sizes}
                         for name, sizes in input_sizes().items()}
    recorded = meta.setdefault("digests", {})
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]()
        for seed in seed_range(args.seeds):
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix=f"record-{name}-") as tmp:
                state = workload.setup(seed, Path(tmp))
                ops = workloads.Ops()
                workload.prepare(state)
                results = workload.run(state, ops)
                outputs = workload.render(state, results)
                failures = workload.check(state, outputs, results)
            if ops.failed or failures:
                print(f"{name} seed {seed}: not recorded: {ops.failed} failed, {failures}")
                continue
            recorded.setdefault(name, {})[str(seed)] = run.digests(outputs)
            print(f"{name} seed {seed}: recorded {len(outputs)} digests")
    meta_path.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
