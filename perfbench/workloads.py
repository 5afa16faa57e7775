"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one client in one process, which issues its
next call only after the previous one returns.  Library calls go through
``mdimlab.<name>`` at call time, so a traced pass sees the tracer's
wrappers and an untraced pass the plain functions.

A workload has four parts:

* ``setup(seed, workdir)``: make the seeded inputs and anything the timed
  pass needs ready (the ``certify`` staircase model is built here);
* ``run(state, ops)``: one timed pass, returning the raw results;
* ``render(state, results)``: the pass's output files as ``{name: bytes}``,
  made outside the timed region; their sha256 digests are compared between
  passes, between traced and untraced passes, and with ``meta.json``;
* ``check(state, outputs, results)``: invariants that do not rely on the
  timed path; returns one message per violated invariant.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
import resource
import shutil
import time
import traceback
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import mdimlab as lib
from mdimlab.cli import main as cli_main
from mdimlab.separation import METHOD_GREEDY, cylinder_representatives

import inputs


# === bookkeeping =============================================================

# the end-to-end times are reported as if calibration_unit's trimmed mean
# time in the run were this (its least time on an idle vCPU of the 2-vCPU
# Xeon VM the benchmark was defined on)
CALIBRATION_REF_S = 0.0155
CALIBRATION_EVERY_S = 0.1      # run time between two calibration samples


def calibration_unit() -> None:
    """A fixed piece of stdlib Fraction arithmetic, the kind of work mdimlab does."""
    total = F(0)
    for i in range(1, 4000):
        total += F(1, i % 97 + 1) * F(i % 13 + 1, 7)


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Ops:
    """Counts attempted and failed operations and times each one.

    ``times`` holds (wall, cpu) seconds of every operation of the current
    pass, in call order; a pass makes the same operations in the same order
    every time, so position i names one operation across passes.
    ``calibration`` holds the times of calibration_unit, sampled between
    operations (see ``calibrate``)."""

    attempted: int = 0
    failed: int = 0
    tracer: object = None
    times: list = field(default_factory=list)
    calibration: list = field(default_factory=list)
    last_calibration: float = 0.0
    step_wall: dict = field(default_factory=dict)
    stdout: dict = field(default_factory=dict)
    pool_wait_s: float = 0.0

    def lib(self, fn, *args):
        """One library call; an MdimError counts as a failed operation."""
        self.attempted += 1
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            return fn(*args)
        except lib.MdimError:
            self.failed += 1
            return None
        finally:
            self.times.append((time.perf_counter() - start, cpu_seconds() - cpu0))
            self.calibrate()

    def calibrate(self) -> None:
        """Time calibration_unit once, if CALIBRATION_EVERY_S has passed since
        the last sample.

        Co-tenants slow this VM by up to 1.8x, for a second or for minutes
        at a time, so an operation's typical time in a run, and even its
        least time, moves with them.  The calibration time of the same run
        moves with them too, and dividing by it takes most of the machine's
        speed out of the figures: over runs spread across slow and quiet
        spells, trimmed means so scaled spread a fifth as much as unscaled
        ones.  Samples are spread over the whole run, between operations
        and outside their timing, and use no mdimlab code, so no change to
        the library changes them."""
        now = time.perf_counter()
        if now - self.last_calibration >= CALIBRATION_EVERY_S:
            calibration_unit()
            self.last_calibration = time.perf_counter()
            self.calibration.append(self.last_calibration - now)

    def cli(self, step: str, argv: list[str]) -> int:
        """One in-process CLI run; a non-zero exit counts as a failure."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        all_cpu0, cpu0, start = cpu_seconds(), time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is not None:
                    rc = self.tracer.call(f"cli.{step}", "cli", cli_main, argv)
                else:
                    rc = cli_main(argv)
            except Exception:            # a traceback is a non-zero exit
                err.write(traceback.format_exc())
                rc = 1
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        self.times.append((wall, cpu_seconds() - all_cpu0))
        self.calibrate()
        self.step_wall[step] = wall
        self.stdout[step] = out.getvalue()
        if step == "sweep-w2":
            self.pool_wait_s = wall - cpu   # the parent waiting on its workers
        if rc != 0:
            self.failed += 1
            self.stdout[step] += f"exit {rc}: {err.getvalue()}"
            if self.tracer is not None:
                self.tracer.stats.errors["cli"] += 1
        return rc


def value_at(m, x: F) -> F:
    """Map value by linear interpolation, written apart from the library's
    evaluator so the checks do not rest on the path being timed."""
    i = bisect_right(m.xs, x) - 1
    if i >= len(m.xs) - 1:
        return m.ys[-1]
    x0, x1, y0, y1 = m.xs[i], m.xs[i + 1], m.ys[i], m.ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def sup_gap(a, b) -> F:
    return max(abs(value_at(a, x) - value_at(b, x)) for x in set(a.xs) | set(b.xs))


_FRACTION = re.compile(rb"-?\d+/(\d+)")


def max_den_bits(outputs: dict[str, bytes]) -> int:
    """Largest denominator bit length of any p/q literal in the outputs."""
    return max((int(q).bit_length() for text in outputs.values()
                for q in _FRACTION.findall(text)), default=0)


def report_counts(csv_text: str) -> list[tuple[F, int, int]]:
    """(epsilon, n, count) rows of a report CSV."""
    rows = []
    for line in csv_text.splitlines()[1:]:
        eps, n, count = line.split(",")[:3]
        rows.append((F(eps), int(n), int(count)))
    return rows


def expect(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# === density =================================================================

def _fmt(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


def _interval(pair) -> str:
    return f"{_fmt(pair[0])}:{_fmt(pair[1])}"


@dataclass
class DensityState:
    workdir: Path
    host: object
    host_text: str
    config: Path
    pass_dir: Path


class Density:
    """build-fbeta -> estimate -> implant -> estimate views -> sweep x2,
    through the CLI in a scratch directory."""

    name = "density"

    def __init__(self, levels: int = inputs.DENSITY_LEVELS) -> None:
        self.levels = levels

    def setup(self, seed: int, workdir: Path) -> DensityState:
        host = inputs.density_host(seed)
        host_text = lib.dump_pwa(host)
        (workdir / "host.txt").write_text(host_text)
        plan = lib.plan_sequences(F(inputs.DENSITY_BETA), self.levels - 1)
        scales = ", ".join(_fmt(lv.eps) for lv in plan.levels)
        config = workdir / "sweep.cfg"
        config.write_text(f"source = pass/m/model.txt\nmethod = cylinder\nscales = {scales}\n")
        return DensityState(workdir, host, host_text, config, workdir / "pass")

    def prepare(self, state: DensityState) -> None:
        shutil.rmtree(state.pass_dir, ignore_errors=True)
        state.pass_dir.mkdir()

    def run(self, state: DensityState, ops: Ops) -> dict:
        d = state.pass_dir
        ops.cli("build-fbeta", ["build-fbeta", "--beta", inputs.DENSITY_BETA,
                                "--levels", str(self.levels), "-o", str(d / "m")])
        ops.cli("estimate-model", ["estimate", "--model", str(d / "m" / "model.txt"),
                                   "-o", str(d / "e")])
        ops.cli("implant", ["implant", "--host", str(state.workdir / "host.txt"),
                            "--plan", str(d / "m" / "plan.txt"),
                            "--center", _fmt(inputs.DENSITY_CENTER),
                            "--flat", _interval(inputs.DENSITY_FLAT),
                            "--inner", _interval(inputs.DENSITY_INNER),
                            "--outer", _interval(inputs.DENSITY_OUTER),
                            "-o", str(d / "i")])
        ops.cli("estimate-views", ["estimate", "--model", str(d / "i" / "views.txt"),
                                   "-o", str(d / "ev")])
        for workers in (1, 2):
            ops.cli(f"sweep-w{workers}", ["sweep", "--config", str(state.config),
                                          "--workers", str(workers),
                                          "-o", str(d / f"s{workers}")])
        return {"stdout": dict(ops.stdout)}

    def render(self, state: DensityState, results: dict) -> dict[str, bytes]:
        return {
            p.relative_to(state.pass_dir).as_posix(): p.read_bytes()
            for p in sorted(state.pass_dir.rglob("*")) if p.is_file()
        }

    def check(self, state: DensityState, outputs: dict[str, bytes], results: dict) -> list[str]:
        fails: list[str] = []
        text = {k: v.decode() for k, v in outputs.items()}
        want = {"m/plan.txt", "m/model.txt", "e/report.csv", "i/implanted.txt",
                "i/views.txt", "ev/report.csv", "s1/sweep.csv", "s2/sweep.csv"}
        missing = want - set(text)
        expect(fails, not missing, f"missing outputs {sorted(missing)}")
        if missing:
            return fails
        stdout = results["stdout"]
        expect(fails, "[FAIL]" not in stdout["build-fbeta"], "build-fbeta verification failed")

        # every format round-trips byte for byte through its loader and dumper
        plan = lib.load_plan(text["m/plan.txt"])
        expect(fails, lib.dump_plan(plan) == text["m/plan.txt"], "plan does not round-trip")
        expect(fails, lib.dump_model(lib.load_model(text["m/model.txt"])) == text["m/model.txt"],
               "model does not round-trip")
        implanted = lib.load_pwa(text["i/implanted.txt"])
        expect(fails, lib.dump_pwa(implanted) == text["i/implanted.txt"],
               "implanted map does not round-trip")
        expect(fails, lib.dump_views(lib.load_views(text["i/views.txt"])) == text["i/views.txt"],
               "views do not round-trip")
        check_dir = state.workdir / "check"
        check_dir.mkdir(exist_ok=True)
        (check_dir / "host.txt").write_text(state.host_text)
        (check_dir / "plan.txt").write_text(text["m/plan.txt"])
        surgery = lib.SurgeryPlan(state.host, inputs.DENSITY_CENTER, inputs.DENSITY_FLAT,
                                  inputs.DENSITY_INNER, inputs.DENSITY_OUTER, plan)
        surgery_text = lib.dump_surgery_plan(surgery, "host.txt", "plan.txt")
        reloaded = lib.load_surgery_plan(surgery_text, check_dir)
        expect(fails, lib.dump_surgery_plan(reloaded, "host.txt", "plan.txt") == surgery_text,
               "surgery plan does not round-trip")

        # cylinder counts are B**n, with B read from the plan's level table
        branches = {}
        for line in text["m/plan.txt"].splitlines():
            if line.startswith("level "):
                kv = dict(tok.split("=") for tok in line.split()[2:])
                branches[F(kv["eps"])] = int(kv["i"]) + 1
        for name in ("e/report.csv", "s1/sweep.csv"):
            rows = report_counts(text[name])
            expect(fails, rows and all(c == branches.get(e, -1) ** n for e, n, c in rows),
                   f"{name}: cylinder counts are not B**n")
        expect(fails, text["s1/sweep.csv"] == text["s2/sweep.csv"],
               "sweep with 2 workers differs from 1 worker")
        view_branches, scale = {}, None
        for line in text["i/views.txt"].splitlines():
            if line.startswith("view "):
                scale = F(line.split()[4])
                view_branches[scale] = 0
            elif line.startswith("branch "):
                view_branches[scale] += 1
        rows = report_counts(text["ev/report.csv"])
        expect(fails, rows and all(c == view_branches.get(e, -1) ** n for e, n, c in rows),
               "ev/report.csv: cylinder counts are not B**n")

        # the implant moves the host by exactly DENSITY_SUP_DISTANCE, only
        # inside the outer window
        distance = _fmt(inputs.DENSITY_SUP_DISTANCE)
        expect(fails, f"sup-distance {distance}" in stdout["implant"],
               f"implant did not report sup-distance {distance}")
        expect(fails, sup_gap(implanted, state.host) == inputs.DENSITY_SUP_DISTANCE,
               f"implanted map is not {distance} from the host")
        t_lo, t_hi = inputs.DENSITY_OUTER
        off = [x for x in set(implanted.xs) | set(state.host.xs) if x <= t_lo or x >= t_hi]
        expect(fails, all(value_at(implanted, x) == value_at(state.host, x) for x in off),
               "implant changed the host off the outer window")
        return fails

    def layer_extras(self, ops: Ops, outputs: dict[str, bytes]) -> dict[str, float]:
        extras = {f"cli.{step}.wall_s": wall for step, wall in ops.step_wall.items()}
        extras["cli.bytes_written"] = sum(len(v) for v in outputs.values())
        extras["cli.sweep-w2.pool_wait_s"] = ops.pool_wait_s
        return extras


# === certify =================================================================

@dataclass
class CertifyState:
    model: object          # FBetaModel
    view: object           # level-0 MarkovView with the map attached
    model2d: object        # Horseshoe2DModel
    core: tuple
    seed: int


class Certify:
    """Certificates by direct d_n evaluation, 1-D cylinders and 2-D baker."""

    name = "certify"

    def __init__(self, n: int = inputs.CERTIFY_N, depth: int = inputs.DEPTH,
                 k: int = inputs.CERTIFY_K) -> None:
        self.n, self.depth, self.k = n, depth, k

    def setup(self, seed: int, workdir: Path) -> CertifyState:
        model = lib.build_fbeta(lib.plan_sequences(inputs.CERTIFY_BETA, self.k))
        view = model.view(inputs.CERTIFY_LEVEL)
        model2d = lib.build_model_2d(inputs.SLABS, inputs.HALF_SIDE, inputs.SLAB_EPSILON,
                                     inputs.PERIOD, inputs.certify_width(seed))
        return CertifyState(model, view, model2d, (view.core_lo, view.core_hi), seed)

    def prepare(self, state: CertifyState) -> None:
        pass

    def run(self, state: CertifyState, ops: Ops) -> dict:
        eps = state.view.separation_scale
        return {
            "conditions": ops.lib(lib.verify_conditions, state.model2d),
            "min_dn": ops.lib(lib.verify_cylinder_separation, state.view, self.n),
            "cert": ops.lib(lib.separated_bound_2d, state.model2d, self.depth),
            "laps": ops.lib(lib.detect_1d, state.model.map, (F(0), F(1)), state.core, eps),
        }

    def render(self, state: CertifyState, results: dict) -> dict[str, bytes]:
        out = {}
        if results["conditions"] is not None:
            out["conditions.txt"] = "\n".join(results["conditions"].lines()).encode()
        if results["min_dn"] is not None:
            out["min_dn.txt"] = _fmt(results["min_dn"]).encode()
        if results["cert"] is not None:
            out["certificate.csv"] = lib.certificate_to_csv(results["cert"]).encode()
            out["horseshoe.txt"] = lib.dump_model_2d(state.model2d).encode()
        if results["laps"] is not None:
            rep = results["laps"]
            lines = [f"count {rep.count}"] + [
                f"lap {_interval(lap.domain)} {'up' if lap.increasing else 'down'}"
                for lap in rep.laps
            ]
            out["laps.txt"] = "\n".join(lines).encode()
        return out

    def check(self, state: CertifyState, outputs: dict[str, bytes], results: dict) -> list[str]:
        fails: list[str] = []
        if any(v is None for v in results.values()):
            return ["an operation returned no result"]
        rng = random.Random(state.seed)
        view, model2d = state.view, state.model2d
        expect(fails, results["conditions"].ok, "2-D model conditions failed")
        text2d = outputs["horseshoe.txt"].decode()
        expect(fails, lib.dump_model_2d(lib.load_model_2d(text2d)) == text2d,
               "2-D model does not round-trip")

        # 1-D: B**n cylinders, minimum above the scale, sampled pairs re-checked
        reps = cylinder_representatives(view, self.n)
        expect(fails, len(reps) == view.branch_count**self.n
               == state.model.plan.branch_count(inputs.CERTIFY_LEVEL) ** self.n,
               "cylinder count is not B**n")
        least = results["min_dn"]
        expect(fails, least > view.separation_scale, "1-D certificate minimum is not above eps")
        for _ in range(inputs.SAMPLED_PAIRS):
            (_, x), (_, y) = rng.sample(reps, 2)
            d = lib.dn_distance(view.map, x, y, self.n)
            expect(fails, d >= least > view.separation_scale,
                   f"1-D pair d_n {d} is below the certified minimum {least}")

        # 2-D: N**(p*ell) representatives, sampled pairs re-checked on orbits
        # computed here from the slab geometry
        cert = results["cert"]
        steps = model2d.p * self.depth
        expect(fails, cert.count == model2d.N**steps == len(cert.points),
               "2-D representative count is not N**(p*ell)")
        eps = model2d.epsilon
        expect(fails, cert.min_pairwise > eps, "2-D certificate minimum is not above eps")
        expect(fails, min(cert.per_point_min) == cert.min_pairwise,
               "2-D per-point minima disagree with the certificate minimum")
        for _ in range(inputs.SAMPLED_PAIRS):
            i, j = rng.sample(range(cert.count), 2)
            a = _orbit_2d(model2d, cert.points[i], steps)
            b = _orbit_2d(model2d, cert.points[j], steps)
            d = max(max(abs(p[0] - q[0]), abs(p[1] - q[1])) for p, q in zip(a, b))
            expect(fails, d > eps and d >= cert.per_point_min[i],
                   f"2-D pair ({i}, {j}) d_n {d} is below its certified minimum")

        # 1-D laps: each crosses the core, consecutive domains more than eps apart
        laps = results["laps"]
        c_lo, c_hi = state.core
        m = state.model.map
        expect(fails, laps.count >= view.branch_count, "detect_1d found fewer laps than branches")
        for lap in laps.laps:
            lo_v, hi_v = value_at(m, lap.lo), value_at(m, lap.hi)
            expect(fails, min(lo_v, hi_v) <= c_lo and max(lo_v, hi_v) >= c_hi,
                   f"lap {_interval(lap.domain)} does not cross the core")
        for a, b in zip(laps.laps, laps.laps[1:]):
            gap = max(abs(a.lo - b.lo), abs(a.hi - b.hi))
            expect(fails, gap > view.separation_scale, "detected laps are not eps-separated")
        return fails

    def layer_extras(self, ops: Ops, outputs: dict[str, bytes]) -> dict[str, float]:
        return {}


def _orbit_2d(model, point, n):
    """Baker-model orbit from the slab geometry alone."""
    d, w = model.delta, model.width
    pts = [point]
    for _ in range(n - 1):
        x, y = pts[-1]
        j = next(j for j, off in enumerate(model.offsets) if off <= y <= off + w)
        off = model.offsets[j]
        span = (y - off) * 2 * d / w
        pts.append((off + (x + d) * w / (2 * d),
                    -d + span if model.orientations[j] == 1 else d - span))
    return pts


# === grid ====================================================================

@dataclass
class GridState:
    tent: object
    data: inputs.GridInputs
    points: list


class Grid:
    """Greedy/exhaustive counting and map algebra on small maps."""

    name = "grid"

    def __init__(self, maps: int = inputs.RANDOM_MAPS,
                 tent_iterates: int = inputs.TENT_ITERATES,
                 tent_greedy=inputs.TENT_GREEDY) -> None:
        self.maps, self.tent_iterates, self.tent_greedy = maps, tent_iterates, tent_greedy

    def setup(self, seed: int, workdir: Path) -> GridState:
        points = [F(j, inputs.EXHAUSTIVE_POINTS - 1) for j in range(inputs.EXHAUSTIVE_POINTS)]
        return GridState(lib.tent_map(), inputs.grid_inputs(seed, self.maps), points)

    def prepare(self, state: GridState) -> None:
        pass

    def run(self, state: GridState, ops: Ops) -> dict:
        tent, data = state.tent, state.data
        n_t, eps_t = self.tent_greedy
        n_m, eps_m = inputs.MAP_GREEDY
        grid13 = F(1, inputs.EXHAUSTIVE_POINTS - 1)
        return {
            "tent_iterate": ops.lib(lib.iterate, tent, self.tent_iterates),
            "tent_greedy": ops.lib(lib.count_separated_greedy, tent, n_t, eps_t, eps_t / 4),
            "map_greedy": [ops.lib(lib.count_separated_greedy, m, n_m, eps_m, eps_m / 4)
                           for m in data.maps],
            "sandwich": [
                (ops.lib(lib.count_separated_exhaustive, c.map, c.n, 2 * c.epsilon, state.points),
                 ops.lib(lib.count_separated_greedy, c.map, c.n, c.epsilon, grid13),
                 ops.lib(lib.count_separated_exhaustive, c.map, c.n, c.epsilon, state.points))
                for c in data.sandwich
            ],
            "iterates": [ops.lib(lib.iterate, m, inputs.MAP_ITERATES) for m in data.maps],
            "pairs": [(ops.lib(lib.compose, a, b), ops.lib(lib.sup_distance, a, b),
                       ops.lib(lib.fixed_points, a)) for a, b in data.pairs],
            "profile": ops.lib(lib.mdim_profile, tent, list(inputs.PROFILE_SCALES),
                               inputs.PROFILE_WINDOW, METHOD_GREEDY),
        }

    def render(self, state: GridState, results: dict) -> dict[str, bytes]:
        def count(rec):
            return "-" if rec is None else str(rec.count)

        def dump(m):
            return "-\n" if m is None else lib.dump_pwa(m)

        out = {"tent_iterate.txt": dump(results["tent_iterate"]).encode()}
        counts = [f"tent {count(results['tent_greedy'])}"]
        counts += [f"map {i} {count(r)}" for i, r in enumerate(results["map_greedy"])]
        counts += [f"sandwich {i} {' '.join(count(r) for r in s)}"
                   for i, s in enumerate(results["sandwich"])]
        out["counts.txt"] = "\n".join(counts).encode()
        out["iterates.txt"] = "".join(dump(m) for m in results["iterates"]).encode()
        algebra = []
        for comp, dist, fixed in results["pairs"]:
            algebra.append(dump(comp))
            algebra.append("-" if dist is None else _fmt(dist))
            algebra.append("-" if fixed is None else " ".join(_interval(f) for f in fixed))
        out["algebra.txt"] = "\n".join(algebra).encode()
        if results["profile"] is not None:
            out["profile.csv"] = lib.report_to_csv(results["profile"]).encode()
        return out

    def check(self, state: GridState, outputs: dict[str, bytes], results: dict) -> list[str]:
        fails: list[str] = []
        data = state.data

        # tent^n is the sawtooth with nodes j/2^n, alternating 0 and 1
        it = results["tent_iterate"]
        size = 2**self.tent_iterates
        expect(fails, it is not None and it.xs == tuple(F(j, size) for j in range(size + 1))
               and it.ys == tuple(F(j % 2) for j in range(size + 1)),
               "iterate(tent) is not the sawtooth")

        eps_t, eps_m = self.tent_greedy[1], inputs.MAP_GREEDY[1]
        for rec, eps in [(results["tent_greedy"], eps_t)] + [(r, eps_m) for r in results["map_greedy"]]:
            # on the eps/4 grid a maximal eps-separated subset has a member within
            # eps (so within 9 grid points) of every grid point
            points = 4 / eps + 1
            expect(fails, rec is not None and points / 9 <= rec.count <= points,
                   "greedy count outside [grid points / 9, grid points]")
        for (coarse, greedy, fine), case in zip(results["sandwich"], data.sandwich):
            expect(fails, None not in (coarse, greedy, fine)
                   and coarse.count <= greedy.count <= fine.count,
                   f"sandwich fails at n={case.n}, eps={case.epsilon}")

        grid64 = [F(j, 64) for j in range(65)]
        for m, it in zip(data.maps, results["iterates"]):
            ok = it is not None
            for x in grid64 if ok else ():
                y = x
                for _ in range(inputs.MAP_ITERATES):
                    y = value_at(m, y)
                ok &= value_at(it, x) == y
            expect(fails, ok, "iterate disagrees with pointwise iteration")
        for (a, b), (comp, dist, fixed) in zip(data.pairs, results["pairs"]):
            expect(fails, comp is not None
                   and all(value_at(comp, x) == value_at(a, value_at(b, x)) for x in grid64),
                   "compose disagrees with pointwise composition")
            expect(fails, dist == sup_gap(a, b), "sup_distance is not the max node gap")
            ok = bool(fixed)
            for lo, hi in fixed or ():
                ok &= value_at(a, lo) == lo and value_at(a, hi) == hi
            for (_, hi), (lo, _) in zip(fixed or (), (fixed or ())[1:]):
                ok &= value_at(a, (hi + lo) / 2) != (hi + lo) / 2
            expect(fails, ok, "fixed_points are not the fixed set")
        report = results["profile"]
        expect(fails, report is not None and 0 <= report.lower <= report.upper <= 1,
               "greedy profile ratios out of order")
        return fails

    def layer_extras(self, ops: Ops, outputs: dict[str, bytes]) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Density, Certify, Grid)}
