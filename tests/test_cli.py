import json
from pathlib import Path

import numpy as np
import pytest

from rootsep import GaussianShiftFamily, cli, solve_limit
from rootsep.cli import load_config, main

SMALL_GAUSS = """
[family]
kind = gaussian_shift
t0 = 1.0

[grid]
t_horizon = 1.25
dx = 0.1

[partition]
n0 = 2
levels = 2

[simulation]
paths = 4000
h_sim = 0.01
seed = 99
probe_times = 0.25,1.0
probe_x = -1.0,0.0,1.0
"""


@pytest.fixture()
def gauss_config(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(SMALL_GAUSS, encoding="utf-8")
    return p


def _hashes(out: Path) -> dict:
    return json.loads((out / "hashes.json").read_text())


def test_solve_artifacts(gauss_config, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(gauss_config), "--out", str(out)]) == 0
    for name in ("config.resolved.ini", "surface.csv", "barriers.csv",
                 "surface.meta.json", "hashes.json", "run_info.json"):
        assert (out / name).exists()
    meta = json.loads((out / "surface.meta.json").read_text())
    assert meta["complementarity"]["passed"]
    header = (out / "surface.csv").read_text().splitlines()[0]
    assert header == "j,s,t,x,u,obstacle_gap"
    assert (out / "barriers.csv").read_text().splitlines()[0] == "j,s,x,r"


def test_solve_reproducible(gauss_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["solve", "--config", str(gauss_config), "--out", str(out1)])
    main(["solve", "--config", str(gauss_config), "--out", str(out2)])
    assert _hashes(out1) == _hashes(out2)


def test_limit_artifacts(gauss_config, tmp_path):
    out = tmp_path / "lim"
    assert main(["limit", "--config", str(gauss_config), "--out", str(out)]) == 0
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["bounds"]["passed"]
    assert conv["pde_residual"]["passed"]
    assert not conv["outside_standing_assumptions"]
    assert len(conv["levels"]) == 2
    assert (out / "limit.csv").read_text().splitlines()[0] == "s,t,x,u,level"


def test_limit_flags_outside_assumptions(tmp_path):
    cfg = tmp_path / "scaled.ini"
    cfg.write_text(SMALL_GAUSS.replace("kind = gaussian_shift\nt0 = 1.0",
                                       "kind = scaled\ns0 = 0.0"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 0
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["outside_standing_assumptions"]


def test_verify_runs_and_is_deterministic(gauss_config, tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--config", str(gauss_config), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(gauss_config), "--out", str(out2),
                 "--threads", "4"]) == 0
    assert _hashes(out1) == _hashes(out2)
    emb = json.loads((out1 / "embedding.json").read_text())
    assert emb["failures"] == []
    assert emb["censored_fraction"] <= 1e-3


def test_verify_dump_raw(gauss_config, tmp_path):
    out = tmp_path / "raw"
    assert main(["verify", "--config", str(gauss_config), "--out", str(out),
                 "--dump-raw"]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,j,sigma,b_sigma"
    assert len(lines) == 1 + 2 * 4000


def test_cmd_all(gauss_config, tmp_path):
    out = tmp_path / "all"
    assert main(["all", "--config", str(gauss_config), "--out", str(out)]) == 0
    assert (out / "solve" / "surface.csv").exists()
    assert (out / "limit" / "convergence.json").exists()
    assert (out / "verify" / "embedding.json").exists()


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL_GAUSS + "\n[grid]\nwhatever = 3\n", encoding="utf-8")
    # configparser merges duplicate sections; unknown key must still be caught
    cfg.write_text(SMALL_GAUSS.replace("[grid]", "[grid]\nwhatever = 3"),
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad2.ini"
    cfg.write_text(SMALL_GAUSS + "\n[mystery]\nkey = 1\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_missing_config_and_usage_errors(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 1
    assert main(["frobnicate", "--config", "x", "--out", "y"]) == 1


def test_convex_order_violation_exits_one(tmp_path):
    # a file-backed family whose marginals shrink in convex order
    fam = tmp_path / "fam.csv"
    fam.write_text("s,position,weight\n"
                   "0.0,-1.0,0.5\n0.0,1.0,0.5\n"
                   "1.0,0.0,1.0\n", encoding="utf-8")
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS.replace("kind = gaussian_shift\nt0 = 1.0",
                                       f"kind = atomic_csv\npath = fam.csv"),
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_atomic_csv_family_end_to_end(tmp_path):
    fam = tmp_path / "fam.csv"
    fam.write_text("s,position,weight\n"
                   "0.0,0.0,1.0\n"
                   "1.0,-1.0,0.5\n1.0,1.0,0.5\n", encoding="utf-8")
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[family]
kind = atomic_csv
path = fam.csv

[grid]
t_horizon = 7.0
dx = 0.1

[partition]
n0 = 1
levels = 2

[simulation]
paths = 3000
h_sim = 0.001
seed = 4
probe_times = 1.0
probe_x = 0.0
""", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    emb = json.loads((out / "embedding.json").read_text())
    masses = emb["marginals"][0]["atom_masses"]
    assert abs(masses[0] - 0.5) < 0.05 and abs(masses[1] - 0.5) < 0.05


def test_resolved_config_echo(gauss_config, tmp_path):
    out = tmp_path / "echo"
    main(["solve", "--config", str(gauss_config), "--out", str(out)])
    resolved = load_config(out / "config.resolved.ini")
    assert resolved.get("family", "kind") == "gaussian_shift"
    assert resolved.getint("partition", "n0") == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(gauss_config, tmp_path, threads):
    out = tmp_path / "o"
    assert main(["all", "--config", str(gauss_config), "--out", str(out),
                 "--threads", threads]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "all"])
@pytest.mark.parametrize("simulation", [
    "h_sim = 0.02",                  # coarser than the solver step dt = 0.01
    "h_sim = 0.004",                 # probe time 0.25 is not a multiple of it
])
def test_simulation_inputs_rejected_before_solve(tmp_path, monkeypatch, command, simulation):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the simulation inputs were checked")

    monkeypatch.setattr(cli, "solve_layers", no_solve)
    monkeypatch.setattr(cli, "solve_limit", no_solve)
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS.replace("h_sim = 0.01", simulation), encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("setting, bad", [
    ("levels = 2", "levels = three"),
    ("t0 = 1.0", "t0 = abc"),
    ("probe_times = 0.25,1.0", "probe_times = a,b"),
])
def test_unparsable_values_rejected(tmp_path, capsys, setting, bad):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS.replace(setting, bad), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["all", "--config", str(cfg), "--out", str(out)]) == 1
    key, value = bad.split(" = ")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("config", sorted((Path(__file__).parents[1] / "configs").glob("*.ini")),
                         ids=lambda p: p.name)
def test_shipped_config_simulation_settings(config):
    cli.Run(load_config(config)).check_simulation()


@pytest.fixture()
def both_config(tmp_path):
    p = tmp_path / "both.ini"
    p.write_text(SMALL_GAUSS.replace("levels = 2", "levels = 2\nstyle = both"),
                 encoding="utf-8")
    return p


def test_all_shares_stages_with_identical_artifacts(both_config, tmp_path):
    out = tmp_path / "all"
    assert main(["all", "--config", str(both_config), "--out", str(out)]) == 0
    for sub in ("solve", "limit", "verify"):
        alone = tmp_path / sub
        assert main([sub, "--config", str(both_config), "--out", str(alone)]) == 0
        assert _hashes(out / sub) == _hashes(alone), sub


def test_partition_independence_uses_the_written_ladder(both_config, tmp_path):
    cfg = tmp_path / "fixed_dx.ini"
    cfg.write_text(both_config.read_text().replace("style = both",
                                                   "style = both\nrefine_dx = false"),
                   encoding="utf-8")
    out = tmp_path / "lim"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "limit.csv", delimiter=",", skiprows=1)
    lattice = [np.unique(rows[:, k]) for k in range(3)]
    uniform = rows[:, 3].reshape([a.size for a in lattice])
    geometric = solve_limit(GaussianShiftFamily(1.0), 1.25, 0.1, 2, 2, style="geometric",
                            refine_dx=False, lattice=lattice)
    conv = json.loads((out / "convergence.json").read_text())
    indep = conv["partition_independence"]
    assert indep["sup_distance"] == float(np.abs(uniform - geometric.values).max())
    # both finest levels share one grid, hence one scheme tolerance
    assert indep["bound"] == (conv["levels"][-1]["cauchy_diff"]
                              + geometric.cauchy_history[-1] + 2.0 * geometric.tol)


# centred two-atom law whose atoms at -1.01 and 1.03 miss every node of a
# dx = 0.05 grid
OFF_GRID_CSV = ("s,position,weight\n0.0,0.0,1.0\n"
                f"1.0,-1.01,{1.03 / 2.04!r}\n1.0,1.03,{1.01 / 2.04!r}\n")


@pytest.mark.parametrize("command, family, dx, code", [
    ("solve", "kind = gaussian_shift\nt0 = 1.0", 0.1, 0),
    ("solve", "kind = scaled\ns0 = 0.0", 0.05, 0),
    ("limit", "kind = scaled\ns0 = 0.0", 0.05, 0),
    ("solve", "kind = three_point\np0 = 0.1\np1 = 0.3", 0.05, 0),
    ("solve", "kind = three_point\np0 = 0.1\np1 = 0.3", 0.03, 1),
    ("solve", "kind = atomic_csv\npath = fam.csv", 0.05, 1),
    ("solve", "kind = pathological", 0.05, 1),
], ids=["gaussian_shift", "scaled_point_start", "scaled_point_start_limit",
        "three_point", "three_point_off_grid", "atomic_csv_off_grid", "pathological"])
def test_verdict_for_every_family_kind(tmp_path, capsys, command, family, dx, code):
    (tmp_path / "fam.csv").write_text(OFF_GRID_CSV, encoding="utf-8")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[family]\n{family}\n\n[grid]\nt_horizon = 1.25\ndx = {dx}\n\n"
                   "[partition]\nn0 = 4\nlevels = 2\n\n[simulation]\nprobe_times =\n",
                   encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert ("off the grid" in err) == (code == 1), err


def test_scheme_c_sets_the_solve_tolerance(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_GAUSS + "\n[tolerances]\nscheme_c = 0.0005\n", encoding="utf-8")
    run = cli.Run(load_config(cfg))
    assert run.surface.tol == 0.0005 * (run.grid.dx + run.grid.dt)
