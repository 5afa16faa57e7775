"""Command-line harness: artifacts, stdout summaries, and exit codes,
driven in-process through main()."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import OVER_BUDGET_PLAN
import mdimlab.cli
import mdimlab.fbeta
import mdimlab.surgery
from mdimlab import (
    VerificationError, build_model_2d, constant_map, count_separated_greedy, dump_model,
    dump_plan, dump_pwa, dump_views, full_lap_view, identity_map, load_plan, load_pwa,
    load_views, plan_sequences,
)
from mdimlab.cli import main
from mdimlab.separation import MarkovView

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === build-fbeta ==============================================================

def test_build_fbeta_writes_a_verified_plan_and_model(tmp_path, capsys, half_plan):
    code, out, err = run(
        capsys, "build-fbeta", "--beta", "1/2", "--levels", "2", "-o", str(tmp_path)
    )
    assert code == 0 and err == ""
    assert out.count("[ok]") == 9
    assert "branches" in out and "1/58" in out and "1/214948" in out
    assert f"wrote {tmp_path / 'plan.txt'}" in out
    assert f"wrote {tmp_path / 'model.txt'}" in out
    assert load_plan((tmp_path / "plan.txt").read_text()) == half_plan
    assert (tmp_path / "model.txt").read_text().startswith("fbeta-model v1")


def test_build_fbeta_full_variant_skips_the_gap_check(tmp_path, capsys):
    code, out, err = run(
        capsys, "build-fbeta", "--beta", "1", "--variant", "full", "--levels", "2",
        "-o", str(tmp_path),
    )
    assert code == 0 and err == ""
    assert out.count("[ok]") == 8  # no branch-gap check: the variant has none


def test_build_fbeta_exponent_one_needs_the_variant_flag(tmp_path, capsys):
    code, _, err = run(capsys, "build-fbeta", "--beta", "1", "-o", str(tmp_path))
    assert code == 2
    assert "dense variant" in err


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_build_fbeta_refuses_fewer_than_one_level(tmp_path, capsys, levels):
    # the plan's K is levels - 1, but the message names the flag the user typed
    code, out, err = run(capsys, "build-fbeta", "--beta", "1/2", "--levels", levels,
                         "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"error: --levels must be >= 1, got {levels}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,gap", [
    (("--beta", "0", "--seed-a1", "1/16"), "3/16 >= a_odd = 1/16"),
    (("--beta", "1", "--variant", "full", "--seed-a1", "1/4"), "1/4 >= a_odd = 1/4"),
])
def test_build_fbeta_refuses_a_seed_leaving_no_gap_below_level_0(tmp_path, capsys, flags, gap):
    code, out, err = run(capsys, "build-fbeta", *flags, "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"error: level 0 leaves no gap below its core: eps = {gap}\n"
    assert not (tmp_path / "out").exists()


def test_implant_refuses_a_plan_leaving_no_gap_below_level_0(tmp_path, capsys):
    # the level line is the one the recursion gives for this seed
    (tmp_path / "host.txt").write_text(dump_pwa(identity_map()))
    (tmp_path / "plan.txt").write_text(
        "fbeta-plan v1\nbeta = 0/1\nK = 0\nseed_a1 = 1/16\nvariant = none\n"
        "level 0: a_even=1/1 a_odd=1/16 ell=5 i=1 eps=3/16 b=1/8\n")
    code, out, err = run(capsys, *implant_argv(tmp_path, tmp_path / "host.txt"))
    assert (code, out) == (6, "")
    assert err == "error: level 0 leaves no gap below its core: eps = 3/16 >= a_odd = 1/16\n"
    assert not (tmp_path / "out").exists()


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a new interpreter, which must finish within 10 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(mdimlab.cli.__file__).parents[1]))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "mdimlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.monotonic() - start < 10
    return done


# the level-0 ell of 49/50 has 45 digits; planning level 1 alone would run for
# minutes, so planning under the node budget must refuse it at level 0
OVER_BUDGET_AT_LEVEL_0 = ("error: this plan needs at least 1048582 nodes by level 0,"
                          " over the budget of 1000000\n")


@pytest.mark.parametrize("beta", ["49/50", "19/20"])
def test_build_fbeta_stops_planning_at_the_first_level_over_the_budget(tmp_path, beta):
    done = run_fresh("build-fbeta", "--beta", beta, "--levels", "2", "-o", str(tmp_path))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == OVER_BUDGET_AT_LEVEL_0
    assert list(tmp_path.iterdir()) == []


def test_a_hopeless_plan_is_refused_in_one_probe(tmp_path):
    # every odd ell below the first over-budget doubling is surely infeasible
    # at 99999/100000, so one probe of a big power settles level 0
    start = time.monotonic()
    done = run_fresh("build-fbeta", "--beta", "99999/100000", "--levels", "3",
                     "-o", str(tmp_path))
    assert time.monotonic() - start < 4
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == OVER_BUDGET_AT_LEVEL_0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["implant", "estimate"])
def test_loaded_plans_are_planned_under_the_node_budget(tmp_path, command):
    (tmp_path / "plan.txt").write_text(OVER_BUDGET_PLAN)
    (tmp_path / "model.txt").write_text("fbeta-model v1\n[plan]\n" + OVER_BUDGET_PLAN)
    (tmp_path / "host.txt").write_text(dump_pwa(identity_map()))
    if command == "implant":
        done = run_fresh(*implant_argv(tmp_path, tmp_path / "host.txt"))
    else:
        done = run_fresh("estimate", "--model", str(tmp_path / "model.txt"),
                         "-o", str(tmp_path / "out"))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == OVER_BUDGET_AT_LEVEL_0
    assert not (tmp_path / "out").exists()


def test_build_fbeta_budget_counts_the_levels_above(tmp_path, capsys):
    # levels 0 and 1 of beta 1/2 cut their cores into 29 and 1,853 pieces,
    # about 2 + (2*29 + 6) + (2*1853 + 6) = 3,778 nodes: that budget fits,
    # one less is refused before anything is written
    code, _, err = run(capsys, "build-fbeta", "--beta", "1/2", "--levels", "2",
                       "--node-budget", "3777", "-o", str(tmp_path))
    assert code == 2
    assert err == "error: this plan needs at least 3778 nodes by level 1, over the budget of 3777\n"
    assert list(tmp_path.iterdir()) == []
    code, _, err = run(capsys, "build-fbeta", "--beta", "1/2", "--levels", "2",
                       "--node-budget", "3778", "-o", str(tmp_path))
    assert code == 0 and err == ""


# === estimate =================================================================

def test_estimate_takes_scales_from_the_model_views(tmp_path, capsys, half_model):
    (tmp_path / "model.txt").write_text(dump_model(half_model))
    code, out, err = run(
        capsys, "estimate", "--model", str(tmp_path / "model.txt"), "-o", str(tmp_path)
    )
    assert code == 0 and err == ""
    assert "upper 0.500065876654" in out
    assert "lower 0.500065876654" in out
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "epsilon,n,count,method,grid,h_hat,ratio"
    assert len(lines) == 9  # header + two scales x window 1:4
    assert any(line.endswith("0.512121838991") for line in lines)


def test_estimate_builds_full_lap_views_for_a_bare_map(tmp_path, capsys, tent):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    code, out, err = run(
        capsys, "estimate", "--map", str(tmp_path / "tent.txt"),
        "--scales", "1/10,1/100", "--format", "json", "-o", str(tmp_path),
    )
    assert code == 0 and err == ""
    assert "upper 0.150514997832" in out  # log 2 / log 100
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report) == ["entries", "lower", "upper"]


def test_estimate_bare_map_requires_scales(tmp_path, capsys, tent):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    code, _, err = run(
        capsys, "estimate", "--map", str(tmp_path / "tent.txt"), "-o", str(tmp_path)
    )
    assert code == 2
    assert "--scales" in err


def test_estimate_rejects_an_unrecognized_source_file(tmp_path, capsys):
    (tmp_path / "junk.txt").write_text("who-knows v9\n1 2 3\n")
    code, _, err = run(
        capsys, "estimate", "--model", str(tmp_path / "junk.txt"), "-o", str(tmp_path)
    )
    assert code == 2
    assert "unrecognized source header" in err


def test_estimate_rejects_bad_model_plans_with_exit_2(tmp_path, capsys, half_model):
    over_budget = "fbeta-model v1\n[plan]\n" + dump_plan(plan_sequences(F(1, 2), 2))
    for text, message in (
        (dump_model(half_model).replace("K = 1", "K = abc"), "not an integer literal: 'abc'"),
        (over_budget, "over the budget of 1000000"),
    ):
        (tmp_path / "model.txt").write_text(text)
        code, _, err = run(capsys, "estimate", "--model", str(tmp_path / "model.txt"),
                           "-o", str(tmp_path))
        assert code == 2
        assert message in err


def test_estimate_rejects_a_view_with_an_empty_label(tmp_path, capsys):
    (tmp_path / "views.txt").write_text(
        "markov-views v1\nview core 1/2:1/1 scale 1/58 label\nbranch up 1/2:3/4\n"
    )
    code, _, err = run(
        capsys, "estimate", "--model", str(tmp_path / "views.txt"), "-o", str(tmp_path)
    )
    assert code == 2
    assert "bad view line" in err


# gaps well above the scale and full branches, but neither branch lies in the core
OFF_CORE_VIEWS = ("markov-views v1\nview core 1/2:1/1 scale 1/100\n"
                  "branch up 0:1/8\nbranch up 1/4:3/8\n")


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_views_with_branches_outside_the_core_are_refused(tmp_path, capsys, command):
    (tmp_path / "views.txt").write_text(OFF_CORE_VIEWS)
    (tmp_path / "views.cfg").write_text("source = views.txt\nmethod = cylinder\nscales = 1/100\n")
    argv = (["estimate", "--model", str(tmp_path / "views.txt")] if command == "estimate"
            else ["sweep", "--config", str(tmp_path / "views.cfg")])
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == "error: branch [0, 1/8] leaves the core [1/2, 1]\n"
    assert not (tmp_path / "out").exists()


def test_estimate_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(
        capsys, "estimate", "--model", str(tmp_path / "nope.txt"), "-o", str(tmp_path)
    )
    assert code == 3
    assert "missing file" in err


def test_estimate_reads_sources_with_a_leading_blank_line(tmp_path, capsys, half_model, tent):
    for text, flag, extra in (
        (dump_model(half_model), "--model", ()),
        (dump_pwa(tent), "--map", ("--scales", "1/10,1/100")),
        (dump_views(half_model.views), "--model", ()),
    ):
        reports = []
        for prefix in ("", "\n"):
            (tmp_path / "source.txt").write_text(prefix + text)
            code, _, err = run(capsys, "estimate", flag, str(tmp_path / "source.txt"), *extra,
                               "--n-window", "1:2", "-o", str(tmp_path))
            assert code == 0 and err == ""
            reports.append((tmp_path / "report.csv").read_bytes())
        assert reports[0] == reports[1]


def test_estimate_coarse_grid_exits_4(tmp_path, capsys, identity):
    (tmp_path / "map.txt").write_text(dump_pwa(identity))
    code, _, err = run(
        capsys, "estimate", "--map", str(tmp_path / "map.txt"), "--method", "greedy",
        "--scales", "1/10", "--grid", "1/2", "-o", str(tmp_path),
    )
    assert code == 4
    assert "epsilon/4" in err


def test_estimate_greedy_grid_over_the_cap_exits_2(tmp_path, capsys, identity):
    (tmp_path / "map.txt").write_text(dump_pwa(identity))
    code, _, err = run(
        capsys, "estimate", "--map", str(tmp_path / "map.txt"), "--method", "greedy",
        "--scales", "1/10", "--grid", "1/1000000000", "-o", str(tmp_path),
    )
    assert code == 2
    assert "greedy grid capped at 1000000 points, got 1000000001" in err


@pytest.mark.parametrize("grid", ["0", "-1/13", "2"])
def test_estimate_grid_outside_the_unit_interval_exits_2(tmp_path, capsys, tent, grid):
    # --grid 0 used to fall back to the default epsilon/4 grid and exit 0
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    code, _, err = run(
        capsys, "estimate", "--map", str(tmp_path / "tent.txt"), "--method", "greedy",
        "--scales", "1/10", "--n-window", "1:2", f"--grid={grid}", "-o", str(tmp_path),
    )
    assert code == 2
    assert "grid resolution must lie in (0, 1]" in err
    assert not (tmp_path / "report.csv").exists()


def test_estimate_refuses_a_scale_above_a_views_declared_one(tmp_path, capsys, half_model):
    # two scales pair with the two views by position, so 1/3 goes to level 0,
    # certified at 1/58 and below only
    (tmp_path / "model.txt").write_text(dump_model(half_model))
    code, out, err = run(capsys, "estimate", "--model", str(tmp_path / "model.txt"),
                         "--scales", "1/3,1/4", "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == "error: epsilon 1/3 above the scale 1/58 of view 'level 0'\n"
    assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_the_cylinder_method_takes_no_grid(tmp_path, capsys, half_model, command):
    # a cylinder count reads no grid, so one given to it is refused, not ignored
    (tmp_path / "model.txt").write_text(dump_model(half_model))
    (tmp_path / "grid.cfg").write_text(SWEEP_CONFIG + "grid = 1/400\n")
    argv = (["estimate", "--model", str(tmp_path / "model.txt"), "--grid", "1/400"]
            if command == "estimate" else ["sweep", "--config", str(tmp_path / "grid.cfg")])
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", "error: cylinder counts take no grid\n")
    assert not (tmp_path / "out").exists()


def test_estimate_greedy_on_a_model_reads_its_map_at_the_given_scales(tmp_path, capsys,
                                                                      half_model):
    (tmp_path / "model.txt").write_text(dump_model(half_model))
    argv = ["estimate", "--model", str(tmp_path / "model.txt"), "--method", "greedy",
            "--n-window", "1:2", "-o", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: greedy estimation needs --scales\n")
    assert not (tmp_path / "out").exists()
    code, _, err = run(capsys, *argv, "--scales", "1/20")
    assert code == 0 and err == ""
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()[1:]
    # the greedy counts of the staircase map itself on the default 1/80 grid
    assert [row.split(",")[:5] for row in rows] == [
        ["1/20", str(n), str(count_separated_greedy(half_model.map, n, F(1, 20), F(1, 80)).count),
         "greedy-grid", "1/80"] for n in (1, 2)]


@pytest.mark.parametrize("views,extra,message", [
    ("level-views", ("--method", "greedy", "--scales", "1/58"),
     "a views file carries no map; greedy needs a map or model file"),
    ("full-laps", (), "views full laps declare no separation scale; pass --scales"),
])
def test_estimate_refuses_views_it_cannot_count(tmp_path, capsys, half_model, tent, views,
                                                 extra, message):
    (tmp_path / "views.txt").write_text(
        dump_views(half_model.views if views == "level-views" else [full_lap_view(tent)]))
    code, out, err = run(capsys, "estimate", "--model", str(tmp_path / "views.txt"), *extra,
                         "-o", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_estimate_picks_the_view_at_each_given_scale(tmp_path, capsys, half_model):
    # one scale for two views: it is matched by value, here to level 1
    (tmp_path / "model.txt").write_text(dump_model(half_model))
    argv = ["estimate", "--model", str(tmp_path / "model.txt"), "--n-window", "1:2"]
    code, _, err = run(capsys, *argv, "--scales", "1/214948", "-o", str(tmp_path))
    assert code == 0 and err == ""
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [
        ["1/214948", "1", "464", "cylinder-exact"], ["1/214948", "2", "215296", "cylinder-exact"]]
    code, out, err = run(capsys, *argv, "--scales", "1/100", "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == "error: no view at scale 1/100; available: 1/58, 1/214948\n"
    assert not (tmp_path / "out").exists()


# === horseshoe ================================================================

def test_horseshoe_2d_certifies_the_reference_model(tmp_path, capsys):
    code, out, err = run(
        capsys, "horseshoe", "--mode", "2d", "--strips", "4", "--half-side", "1/2",
        "--epsilon", "1/16", "--period", "2", "--strip-width", "1/8", "--depth", "1",
        "-o", str(tmp_path),
    )
    assert code == 0 and err == ""
    assert out.count("[ok]") == 6
    assert "certified 16 representatives at depth 2" in out
    assert "min pairwise distance 7/24" in out
    assert "ratio-lower-bound 0.5" in out
    cert = (tmp_path / "certificate.csv").read_text().splitlines()
    assert cert[0] == "itinerary,x,y,min_pairwise_dn"
    assert cert[1] == "0-0,0/1,-63/128,7/24"
    assert (tmp_path / "horseshoe.txt").read_text().startswith("horseshoe-2d v1")


def test_horseshoe_2d_rates_epsilon_one_as_infinite(tmp_path, capsys):
    code, out, err = run(
        capsys, "horseshoe", "--mode", "2d", "--strips", "2", "--half-side", "2",
        "--epsilon", "1", "-o", str(tmp_path),
    )
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "ratio-lower-bound inf"


def test_horseshoe_2d_rejects_an_overfull_packing(tmp_path, capsys):
    code, _, err = run(
        capsys, "horseshoe", "--mode", "2d", "--strips", "16", "--half-side", "1/2",
        "--epsilon", "1/16", "-o", str(tmp_path),
    )
    assert code == 2
    assert err == "error: layout refused: width-positive: width 0/1, square side 1/1\n"


def test_horseshoe_1d_reports_tent_laps(tmp_path, capsys, tent):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    code, out, err = run(
        capsys, "horseshoe", "--mode", "1d", "--map", str(tmp_path / "tent.txt"),
        "--epsilon", "1/8", "--target", "2", "-o", str(tmp_path),
    )
    assert code == 0 and err == ""
    assert "laps crossing 0/1:1/1: 2" in out
    assert "min domain separation 1/2" in out
    assert "lap 0/1:1/2 up" in out
    assert "lap 1/2:1/1 down" in out


def test_horseshoe_1d_exits_5_below_target(tmp_path, capsys, tent):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    code, _, err = run(
        capsys, "horseshoe", "--mode", "1d", "--map", str(tmp_path / "tent.txt"),
        "--epsilon", "1/8", "--target", "3", "-o", str(tmp_path),
    )
    assert code == 5
    assert "below target 3" in err


@pytest.mark.parametrize("flag,value", [
    ("--map", "missing.txt"), ("--window", "0:1"), ("--core", "1/4:3/4"), ("--margin", "0"),
    ("--target", "99"),
])
def test_horseshoe_2d_refuses_the_1d_flags(tmp_path, capsys, flag, value):
    # a flag is refused even when its value is the 1-D default
    code, out, err = run(
        capsys, "horseshoe", "--mode", "2d", "--strips", "4", "--half-side", "1/2",
        "--epsilon", "1/16", flag, value, "-o", str(tmp_path / "out"),
    )
    assert (code, out) == (2, "")
    assert err == f"error: {flag} is not a --mode 2d flag\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [
    ("--strips", "9"), ("--half-side", "1/2"), ("--period", "1"), ("--strip-width", "1/8"),
    ("--depth", "7"),
])
def test_horseshoe_1d_refuses_the_2d_flags(tmp_path, capsys, tent, flag, value):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    code, out, err = run(
        capsys, "horseshoe", "--mode", "1d", "--map", str(tmp_path / "tent.txt"),
        "--epsilon", "1/8", flag, value, "-o", str(tmp_path / "out"),
    )
    assert (code, out) == (2, "")
    assert err == f"error: {flag} is not a --mode 1d flag\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--map", "tent.txt", "--scales", "1/10", "--n-window", "1-4"],
     "bad iterate window '1-4', expected like 1:4"),
    (["horseshoe", "--mode", "2d", "--half-side", "1/2", "--epsilon", "1/16"],
     "--strips is required for --mode 2d"),
    (["sweep", "--config", "bisection.cfg"], "unknown method 'bisection'"),
], ids=["n-window", "missing-2d-flag", "sweep-method"])
def test_malformed_parameters_exit_2_and_write_nothing(tmp_path, capsys, tent, argv, message):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    (tmp_path / "bisection.cfg").write_text(
        GREEDY_SWEEP_CONFIG.replace("method = greedy", "method = bisection"))
    argv = [str(tmp_path / a) if a.endswith((".txt", ".cfg")) else a for a in argv]
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


EMPTY_FLAG_ARGV = {  # each command line exits 0 with a value for its last flag
    "--scales": ["estimate", "--model", "model.txt"],
    "--grid": ["estimate", "--model", "model.txt", "--method", "greedy", "--scales", "1/4"],
    "--model": ["estimate"],
    "--strip-width": ["horseshoe", "--mode", "2d", "--strips", "4", "--half-side", "1/2",
                      "--epsilon", "1/16"],
    "--core": ["horseshoe", "--mode", "1d", "--map", "tent.txt", "--epsilon", "1/8"],
}


@pytest.mark.parametrize("flag,code,message", [
    ("--scales", 2, "scales list is empty"),
    ("--grid", 2, "not a rational literal: ''"),
    ("--model", 3, "not a file: ."),
    ("--strip-width", 2, "not a rational literal: ''"),
    ("--core", 2, "not an interval literal lo:hi: ''"),
    ("--budget", 2, "not a rational literal: ''"),
])
def test_an_empty_flag_value_is_refused_not_read_as_absent(
    tmp_path, capsys, tent, identity, half_plan, half_model, flag, code, message
):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    (tmp_path / "model.txt").write_text(dump_model(half_model))
    write_implant_inputs(tmp_path, identity, half_plan)
    if flag == "--budget":
        argv = implant_argv(tmp_path, tmp_path / "host.txt")
    else:
        argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in EMPTY_FLAG_ARGV[flag]]
        argv += ["-o", str(tmp_path / "out")]
    assert run(capsys, *argv, flag, "") == (code, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scales", ["1/10,,1/20", "1/10,1/20,", ",1/10"])
def test_an_empty_scale_token_is_refused_not_dropped(tmp_path, capsys, tent, scales):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    argv = ["estimate", "--map", str(tmp_path / "tent.txt"), "--method", "greedy",
            "--scales", scales, "-o", str(tmp_path / "out")]
    assert run(capsys, *argv) == (2, "", "error: not a rational literal: ''\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--map", "const.txt", "--scales", "1/4"],
     "map has no monotone lap crossing [0, 1]; the cylinder method needs full laps"
     " — use the greedy method instead"),
    (["horseshoe", "--mode", "2d", "--strips", "0", "--half-side", "1/2", "--epsilon", "1/16"],
     "need N >= 1 and p >= 1, got N=0, p=1"),
], ids=["no-full-lap", "no-strips"])
def test_inputs_with_nothing_to_count_exit_2(tmp_path, capsys, argv, message):
    (tmp_path / "const.txt").write_text(dump_pwa(constant_map(F(1, 2))))
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    assert run(capsys, *argv, "-o", str(tmp_path / "out")) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,count", [
    (["--strips", "1000000", "--half-side", "1000000", "--epsilon", "1/2"], "1000000"),
    (["--strips", "2", "--half-side", "1/2", "--epsilon", "1/16", "--depth", "15000"],
     "2**15000"),
    (["--strips", "2", "--half-side", "1/2", "--epsilon", "1/16", "--depth", "14000"],
     "2**14000"),
], ids=["million-slabs", "depth-15000", "depth-14000"])
def test_horseshoe_2d_refuses_the_representative_cap_before_laying_out_a_slab(
    tmp_path, capsys, monkeypatch, argv, count
):
    def no_layout(*args):
        raise AssertionError("slabs laid out over the cap")

    monkeypatch.setattr(mdimlab.cli, "build_model_2d", no_layout)
    code, out, err = run(capsys, "horseshoe", "--mode", "2d", *argv, "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"error: N**(p*ell) = {count} representatives exceed the cap 4096\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_horseshoe_2d_refuses_a_depth_below_one_before_laying_out_a_slab(
    tmp_path, capsys, monkeypatch, depth
):
    def no_layout(*args):
        raise AssertionError("slabs laid out at a depth below 1")

    monkeypatch.setattr(mdimlab.cli, "build_model_2d", no_layout)
    code, out, err = run(capsys, "horseshoe", "--mode", "2d", "--strips", "2", "--half-side", "1/2",
                         "--epsilon", "1/16", "--depth", depth, "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"error: ell must be >= 1, got {depth}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_estimate_refuses_a_cylinder_count_too_long_to_print(tmp_path, capsys, half_model, fmt):
    # 8**4999 has 4,515 digits: past the count digit cap, refused before a report is written
    (tmp_path / "model.txt").write_text(dump_model(half_model))
    code, out, err = run(capsys, "estimate", "--model", str(tmp_path / "model.txt"),
                         "--scales", "1/58", "--n-window", "4999:5000", "--format", fmt,
                         "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == "error: 8**4999 depth-4999 cylinders: a count over 4300 digits\n"
    assert not (tmp_path / "out").exists()


def test_horseshoe_2d_exits_5_when_the_built_model_fails_its_checks(tmp_path, capsys,
                                                                      monkeypatch):
    # build_model_2d refuses every layout verify_conditions fails, so the
    # cross-check is driven by a builder that returns a gap at epsilon
    model = build_model_2d(4, F(1, 2), F(1, 16), 2, F(1, 8))
    monkeypatch.setattr(mdimlab.cli, "build_model_2d",
                        lambda *args: dataclasses.replace(model, epsilon=F(1, 6)))
    code, out, err = run(
        capsys, "horseshoe", "--mode", "2d", "--strips", "4", "--half-side", "1/2",
        "--epsilon", "1/16", "--period", "2", "--strip-width", "1/8", "-o", str(tmp_path / "out"),
    )
    assert code == 5
    assert "[FAIL] slab-gaps: slabs 0 and 1: gap 1/6 <= epsilon 1/6" in out.splitlines()
    # equal gaps at or below epsilon overfill the square too: packing fails first
    assert err == "error: packing: N*(width + epsilon) = 7/6 vs 2*delta = 1/1\n"
    assert not (tmp_path / "out").exists()


def test_build_fbeta_exits_5_when_the_built_model_fails_its_checks(tmp_path, capsys,
                                                                   monkeypatch, half_model):
    # no known plan reaches this exit: a builder whose map is the identity drives it
    monkeypatch.setattr(mdimlab.cli, "build_fbeta",
                        lambda *args, **kwargs: dataclasses.replace(half_model, map=identity_map()))
    code, out, err = run(capsys, "build-fbeta", "--beta", "1/2", "--levels", "2",
                         "-o", str(tmp_path))
    assert code == 5
    assert "[FAIL] branches-onto-core: level 1 j=1 misses the core endpoints" in out.splitlines()
    assert err == "error: branches-onto-core: level 1 j=1 misses the core endpoints\n"


# === implant ==================================================================

def write_implant_inputs(tmp_path, identity, half_plan):
    (tmp_path / "host.txt").write_text(dump_pwa(identity))
    (tmp_path / "plan.txt").write_text(dump_plan(half_plan))


def implant_argv(tmp_path, host):
    """The criterion-4 implant of the inputs `write_implant_inputs` wrote."""
    return ["implant", "--host", str(host), "--plan", str(tmp_path / "plan.txt"),
            "--center", "1/2", "--flat", "3/20:17/20", "--inner", "1/4:3/4",
            "--outer", "1/5:4/5", "-o", str(tmp_path / "out")]


def test_implant_writes_the_blended_map_and_views(tmp_path, capsys, identity, half_plan):
    write_implant_inputs(tmp_path, identity, half_plan)
    code, out, err = run(
        capsys, "implant",
        "--host", str(tmp_path / "host.txt"), "--plan", str(tmp_path / "plan.txt"),
        "--center", "1/2", "--flat", "3/20:17/20",
        "--inner", "1/4:3/4", "--outer", "1/5:4/5", "-o", str(tmp_path),
    )
    assert code == 0 and err == ""
    assert "sup-distance 83/232" in out
    blended = load_pwa((tmp_path / "implanted.txt").read_text())
    assert blended(F(1, 10)) == F(1, 10)
    views = load_views((tmp_path / "views.txt").read_text())
    assert [v.branch_count for v in views] == [8, 464]
    assert views[0].label == "level 0 in 1/4:3/4"
    assert views[0].separation_scale == F(1, 116)


def test_implant_builds_the_staircase_once(tmp_path, capsys, monkeypatch, identity, half_plan):
    # every assembly, direct or through build_fbeta, passes one of these two names
    plans, staircases, view_maps = [], [], []
    for module in (mdimlab.fbeta, mdimlab.surgery):
        def counted(plan, *rest, real=module.assemble_fbeta, **kwargs):
            plans.append(plan)
            built = real(plan, *rest, **kwargs)
            staircases.append(built[0])
            return built
        monkeypatch.setattr(module, "assemble_fbeta", counted)
    check_view = MarkovView.__post_init__

    def recorded(view):
        view_maps.append(view.map)
        check_view(view)
    monkeypatch.setattr(MarkovView, "__post_init__", recorded)
    write_implant_inputs(tmp_path, identity, half_plan)
    code, _, err = run(capsys, *implant_argv(tmp_path, tmp_path / "host.txt"))
    assert code == 0 and err == ""
    assert plans == [half_plan]
    # the views are checked against the blended map only, never the staircase
    blended = load_pwa((tmp_path / "out" / "implanted.txt").read_text())
    assert [vm for vm in view_maps if vm is not None] == [blended, blended]
    assert staircases[0] not in view_maps


@pytest.mark.parametrize("command", ["estimate", "implant"])
def test_a_directory_given_for_an_input_file_exits_3(tmp_path, capsys, identity, half_plan,
                                                      command):
    write_implant_inputs(tmp_path, identity, half_plan)
    argv = (["estimate", "--model", str(tmp_path), "-o", str(tmp_path / "out")]
            if command == "estimate" else implant_argv(tmp_path, tmp_path))
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert f"not a file: {tmp_path}" in err


def test_implant_precondition_failure_exits_6(tmp_path, capsys, identity, half_plan):
    write_implant_inputs(tmp_path, identity, half_plan)
    code, _, err = run(
        capsys, "implant",
        "--host", str(tmp_path / "host.txt"), "--plan", str(tmp_path / "plan.txt"),
        "--center", "1/2", "--flat", "3/20:17/20",
        "--inner", "1/5:4/5", "--outer", "1/4:3/4", "-o", str(tmp_path),
    )
    assert code == 6
    assert "nest strictly inside" in err


def test_a_failed_implant_postcondition_exits_5(tmp_path, capsys, monkeypatch, identity,
                                               half_plan):
    def refused(plan, node_budget):
        raise VerificationError("implant moved the host outside the outer window")
    monkeypatch.setattr(mdimlab.cli, "implant", refused)
    write_implant_inputs(tmp_path, identity, half_plan)
    code, out, err = run(capsys, *implant_argv(tmp_path, tmp_path / "host.txt"))
    assert (code, out) == (5, "")
    assert err == "error: implant moved the host outside the outer window\n"
    assert not (tmp_path / "out").exists()


def test_implant_takes_no_profile(tmp_path, capsys, identity, half_plan):
    # the splice is the blend for every bump, so there is no profile to pass
    write_implant_inputs(tmp_path, identity, half_plan)
    (tmp_path / "chi.txt").write_text("pwa-map v1\n0 0\n1/5 0\n1/4 1\n3/4 1\n4/5 0\n1 0\n")
    argv = implant_argv(tmp_path, tmp_path / "host.txt")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--profile", str(tmp_path / "chi.txt")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: mdimlab")
    assert f"unrecognized arguments: --profile {tmp_path / 'chi.txt'}" in captured.err
    assert not (tmp_path / "out").exists()


# === sweep ====================================================================

SWEEP_CONFIG = """\
# staircase sweep over both view scales
source = model.txt
method = cylinder
scales = 1/58,1/214948
n-window = 1:3
"""


# greedy sweep on the tent: the only method whose counts go to worker processes
GREEDY_SWEEP_CONFIG = """\
source = tent.txt
method = greedy
scales = 1/10,1/20
grid = 1/80
n-window = 1:3
"""


def test_sweep_output_is_identical_across_worker_counts(tmp_path, capsys, half_model, tent):
    (tmp_path / "model.txt").write_text(dump_model(half_model))
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    for name, config, upper in (
        ("cylinder", SWEEP_CONFIG, "upper 0.500065876654"),
        ("greedy", GREEDY_SWEEP_CONFIG, "upper 0.142814182297"),
    ):
        (tmp_path / f"{name}.cfg").write_text(config)
        outs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"{name}-w{workers}"
            code, out, err = run(
                capsys, "sweep", "--config", str(tmp_path / f"{name}.cfg"),
                "--workers", workers, "-o", str(out_dir),
            )
            assert code == 0 and err == ""
            assert upper in out
            outs.append((out_dir / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_sweep_refuses_fewer_than_one_worker(tmp_path, capsys, tent, workers):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    (tmp_path / "greedy.cfg").write_text(GREEDY_SWEEP_CONFIG)
    code, out, err = run(
        capsys, "sweep", "--config", str(tmp_path / "greedy.cfg"),
        "--workers", workers, "-o", str(tmp_path / "out"),
    )
    assert (code, out) == (2, "")
    assert err == f"error: workers must be >= 1, got {workers}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["horseshoe", "--mode", "2d", "--strips", "4", "--half-side", "1/2", "--epsilon", "1/16"],
    ["build-fbeta", "--beta", "1/2"],
    ["estimate", "--map", "tent.txt", "--method", "greedy"],
])
def test_only_sweep_takes_a_worker_count(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "-3", "-o", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: mdimlab")
    assert "unrecognized arguments: --workers -3" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build-fbeta", "horseshoe", "implant"])
def test_only_the_report_commands_take_a_format(tmp_path, capsys, identity, half_plan, command):
    # each command line runs with exit 0 once --format is dropped
    write_implant_inputs(tmp_path, identity, half_plan)
    argv = {
        "build-fbeta": ["build-fbeta", "--beta", "1/2", "-o", str(tmp_path / "out")],
        "horseshoe": ["horseshoe", "--mode", "2d", "--strips", "4", "--half-side", "1/2",
                      "--epsilon", "1/16", "-o", str(tmp_path / "out")],
        "implant": implant_argv(tmp_path, tmp_path / "host.txt"),
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: mdimlab")
    assert "unrecognized arguments: --format json" in captured.err
    assert not (tmp_path / "out").exists()


def test_sweep_writes_a_json_report(tmp_path, capsys, tent):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    (tmp_path / "greedy.cfg").write_text(GREEDY_SWEEP_CONFIG)
    code, out, err = run(
        capsys, "sweep", "--config", str(tmp_path / "greedy.cfg"), "--format", "json",
        "-o", str(tmp_path / "out"),
    )
    assert code == 0 and err == ""
    assert "upper 0.142814182297" in out
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["sweep.json"]
    report = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert sorted(report) == ["entries", "lower", "upper"]
    assert [e["epsilon"] for e in report["entries"]] == ["1/10", "1/20"]


@pytest.mark.parametrize("scales", ["1/10,,1/20", "1/10,1/20,"])
def test_a_sweep_config_with_an_empty_scale_token_is_refused(tmp_path, capsys, tent, scales):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    (tmp_path / "greedy.cfg").write_text(
        GREEDY_SWEEP_CONFIG.replace("scales = 1/10,1/20", f"scales = {scales}"))
    code, out, err = run(capsys, "sweep", "--config", str(tmp_path / "greedy.cfg"),
                         "-o", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", "error: not a rational literal: ''\n")
    assert not (tmp_path / "out").exists()


def test_a_sweep_config_with_no_scales_is_refused(tmp_path, capsys, tent):
    (tmp_path / "tent.txt").write_text(dump_pwa(tent))
    (tmp_path / "greedy.cfg").write_text(
        GREEDY_SWEEP_CONFIG.replace("scales = 1/10,1/20", "scales ="))
    code, out, err = run(capsys, "sweep", "--config", str(tmp_path / "greedy.cfg"),
                         "-o", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", "error: scales list is empty\n")
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_an_unknown_config_key(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text(
        "source = model.txt\nmethod = cylinder\nscales = 1/2\nstyle = loud\n"
    )
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "bad.cfg"))
    assert code == 2
    assert "unknown config key 'style'" in err


def test_sweep_requires_the_core_config_keys(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("source = model.txt\nmethod = cylinder\n")
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "bad.cfg"))
    assert code == 2
    assert "missing config key 'scales'" in err


def test_sweep_rejects_a_repeated_config_key(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text(
        "source = model.txt\nmethod = cylinder\nscales = 1/2\nmethod = greedy\n"
    )
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "bad.cfg"))
    assert code == 2
    assert "repeated config key 'method'" in err
